package objectstore

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/hpcclab/oparaca-go/internal/vclock"
)

func newStore() *Store { return New("test-secret", nil) }

func TestCreateBucket(t *testing.T) {
	s := newStore()
	if err := s.CreateBucket("media"); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateBucket("media"); !errors.Is(err, ErrBucketExists) {
		t.Fatalf("duplicate create = %v", err)
	}
	for _, bad := range []string{"", "has space", "has/slash"} {
		if err := s.CreateBucket(bad); err == nil {
			t.Errorf("CreateBucket(%q) succeeded", bad)
		}
	}
}

func TestEnsureBucketIdempotent(t *testing.T) {
	s := newStore()
	if err := s.EnsureBucket("b"); err != nil {
		t.Fatal(err)
	}
	if err := s.EnsureBucket("b"); err != nil {
		t.Fatalf("second EnsureBucket = %v", err)
	}
}

func TestPutGetDelete(t *testing.T) {
	s := newStore()
	s.CreateBucket("b")
	etag, err := s.Put("b", "img/cat.png", []byte("pngdata"), "image/png")
	if err != nil {
		t.Fatal(err)
	}
	if etag == "" {
		t.Fatal("empty etag")
	}
	obj, err := s.Get("b", "img/cat.png")
	if err != nil {
		t.Fatal(err)
	}
	if string(obj.Data) != "pngdata" || obj.ContentType != "image/png" {
		t.Fatalf("obj = %+v", obj)
	}
	if err := s.Delete("b", "img/cat.png"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("b", "img/cat.png"); !errors.Is(err, ErrNoSuchKey) {
		t.Fatalf("Get after delete = %v", err)
	}
	// S3 semantics: deleting absent key is fine.
	if err := s.Delete("b", "img/cat.png"); err != nil {
		t.Fatal(err)
	}
}

func TestMissingBucket(t *testing.T) {
	s := newStore()
	if _, err := s.Put("nope", "k", nil, ""); !errors.Is(err, ErrNoSuchBucket) {
		t.Fatalf("Put = %v", err)
	}
	if _, err := s.Get("nope", "k"); !errors.Is(err, ErrNoSuchBucket) {
		t.Fatalf("Get = %v", err)
	}
	if err := s.Delete("nope", "k"); !errors.Is(err, ErrNoSuchBucket) {
		t.Fatalf("Delete = %v", err)
	}
}

func TestPutCopiesData(t *testing.T) {
	s := newStore()
	s.CreateBucket("b")
	buf := []byte("abc")
	s.Put("b", "k", buf, "")
	buf[0] = 'z'
	obj, _ := s.Get("b", "k")
	if string(obj.Data) != "abc" {
		t.Fatalf("store aliased caller buffer: %s", obj.Data)
	}
}

func TestETagStableAcrossSameContent(t *testing.T) {
	s := newStore()
	s.CreateBucket("b")
	e1, _ := s.Put("b", "a", []byte("same"), "")
	e2, _ := s.Put("b", "c", []byte("same"), "")
	e3, _ := s.Put("b", "d", []byte("different"), "")
	if e1 != e2 {
		t.Fatal("same content produced different etags")
	}
	if e1 == e3 {
		t.Fatal("different content produced same etag")
	}
}

func TestPresignVerifyRoundTrip(t *testing.T) {
	s := newStore()
	q := s.Presign(http.MethodGet, "b", "k", time.Minute)
	if err := s.Verify(http.MethodGet, "b", "k", q); err != nil {
		t.Fatalf("Verify = %v", err)
	}
}

func TestPresignMethodBinding(t *testing.T) {
	s := newStore()
	q := s.Presign(http.MethodGet, "b", "k", time.Minute)
	if err := s.Verify(http.MethodPut, "b", "k", q); !errors.Is(err, ErrInvalidSignature) {
		t.Fatalf("GET signature accepted for PUT: %v", err)
	}
}

func TestPresignKeyBinding(t *testing.T) {
	s := newStore()
	q := s.Presign(http.MethodGet, "b", "k", time.Minute)
	if err := s.Verify(http.MethodGet, "b", "other", q); !errors.Is(err, ErrInvalidSignature) {
		t.Fatalf("signature accepted for different key: %v", err)
	}
	if err := s.Verify(http.MethodGet, "b2", "k", q); !errors.Is(err, ErrInvalidSignature) {
		t.Fatalf("signature accepted for different bucket: %v", err)
	}
}

func TestPresignExpiry(t *testing.T) {
	clock := vclock.NewManual(time.Unix(1000, 0))
	s := New("secret", clock)
	q := s.Presign(http.MethodGet, "b", "k", time.Minute)
	if err := s.Verify(http.MethodGet, "b", "k", q); err != nil {
		t.Fatalf("fresh signature rejected: %v", err)
	}
	clock.Advance(2 * time.Minute)
	if err := s.Verify(http.MethodGet, "b", "k", q); !errors.Is(err, ErrInvalidSignature) {
		t.Fatalf("expired signature accepted: %v", err)
	}
}

func TestPresignDifferentSecretsReject(t *testing.T) {
	a := New("secret-a", nil)
	b := New("secret-b", nil)
	q := a.Presign(http.MethodGet, "b", "k", time.Minute)
	if err := b.Verify(http.MethodGet, "b", "k", q); !errors.Is(err, ErrInvalidSignature) {
		t.Fatalf("cross-secret signature accepted: %v", err)
	}
}

func TestVerifyMissingParams(t *testing.T) {
	s := newStore()
	if err := s.Verify(http.MethodGet, "b", "k", nil); !errors.Is(err, ErrInvalidSignature) {
		t.Fatalf("Verify with no params = %v", err)
	}
}

func TestHandlerEndToEnd(t *testing.T) {
	s := newStore()
	s.CreateBucket("media")
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// PUT via presigned URL.
	putURL := s.PresignURL(srv.URL, http.MethodPut, "media", "video/clip.mp4", time.Minute)
	req, _ := http.NewRequest(http.MethodPut, putURL, bytes.NewReader([]byte("mp4bytes")))
	req.Header.Set("Content-Type", "video/mp4")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT status = %d", resp.StatusCode)
	}

	// GET via presigned URL.
	getURL := s.PresignURL(srv.URL, http.MethodGet, "media", "video/clip.mp4", time.Minute)
	resp, err = http.Get(getURL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "mp4bytes" {
		t.Fatalf("GET status=%d body=%q", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "video/mp4" {
		t.Fatalf("content type = %q", ct)
	}

	// DELETE via presigned URL.
	delURL := s.PresignURL(srv.URL, http.MethodDelete, "media", "video/clip.mp4", time.Minute)
	req, _ = http.NewRequest(http.MethodDelete, delURL, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE status = %d", resp.StatusCode)
	}
}

func TestHandlerRejectsUnsigned(t *testing.T) {
	s := newStore()
	s.CreateBucket("b")
	s.Put("b", "k", []byte("secret-data"), "")
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/b/k")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("unsigned GET status = %d, want 403", resp.StatusCode)
	}
}

func TestHandlerRejectsTamperedPath(t *testing.T) {
	s := newStore()
	s.CreateBucket("b")
	s.Put("b", "public", []byte("ok"), "")
	s.Put("b", "private", []byte("no"), "")
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	signed := s.PresignURL(srv.URL, http.MethodGet, "b", "public", time.Minute)
	tampered := strings.Replace(signed, "/b/public", "/b/private", 1)
	resp, err := http.Get(tampered)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("tampered GET status = %d, want 403", resp.StatusCode)
	}
}

func TestHandlerNotFound(t *testing.T) {
	s := newStore()
	s.CreateBucket("b")
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	u := s.PresignURL(srv.URL, http.MethodGet, "b", "missing", time.Minute)
	resp, err := http.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
}

func TestHandlerBadPath(t *testing.T) {
	s := newStore()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/onlybucket")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

func TestHandlerMethodNotAllowed(t *testing.T) {
	s := newStore()
	s.CreateBucket("b")
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	u := s.PresignURL(srv.URL, http.MethodPost, "b", "k", time.Minute)
	resp, err := http.Post(u, "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d, want 405", resp.StatusCode)
	}
}

func TestKeysWithSpecialCharacters(t *testing.T) {
	s := newStore()
	s.CreateBucket("b")
	key := "dir with space/file+name.png"
	s.Put("b", key, []byte("x"), "")
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	u := s.PresignURL(srv.URL, http.MethodGet, "b", key, time.Minute)
	resp, err := http.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "x" {
		t.Fatalf("special-char key GET status=%d body=%q url=%s", resp.StatusCode, body, u)
	}
}

// Property: Presign/Verify round-trips for arbitrary keys and methods.
func TestPresignRoundTripProperty(t *testing.T) {
	s := newStore()
	methods := []string{"GET", "PUT", "DELETE"}
	prop := func(bucket, key string, mIdx uint8) bool {
		m := methods[int(mIdx)%len(methods)]
		q := s.Presign(m, bucket, key, time.Minute)
		return s.Verify(m, bucket, key, q) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
