// Package objectstore implements the unstructured-data substrate
// (paper §III-D): an S3-protocol-style bucket/object store with
// HMAC-signed presigned URLs, so developer code can read and write
// multimedia state "without sharing the secret key and avoiding
// leaking sensitive information".
//
// The store is in-memory (with optional disk export) and is served
// over HTTP by Handler, mirroring the role MinIO/Ceph play for the
// real Oparaca deployment.
package objectstore

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/hpcclab/oparaca-go/internal/vclock"
)

// Sentinel errors.
var (
	// ErrNoSuchBucket is returned for operations on absent buckets.
	ErrNoSuchBucket = errors.New("objectstore: no such bucket")
	// ErrNoSuchKey is returned when an object does not exist.
	ErrNoSuchKey = errors.New("objectstore: no such key")
	// ErrBucketExists is returned by CreateBucket on a duplicate name.
	ErrBucketExists = errors.New("objectstore: bucket already exists")
	// ErrInvalidSignature is returned for bad or expired presigned URLs.
	ErrInvalidSignature = errors.New("objectstore: invalid or expired signature")
)

// Object is a stored blob plus metadata.
type Object struct {
	Key          string
	Data         []byte
	ContentType  string
	ETag         string
	LastModified time.Time
}

// UploadEvent describes one completed object write, delivered to
// subscribers (the platform uses this to trigger functions on upload,
// the paper's §II-D motivating scenario).
type UploadEvent struct {
	Bucket string `json:"bucket"`
	Key    string `json:"key"`
	ETag   string `json:"etag"`
	Size   int    `json:"size"`
}

// Store is an in-memory S3-like object store. It is safe for
// concurrent use.
type Store struct {
	secret []byte
	clock  vclock.Clock

	mu      sync.RWMutex
	buckets map[string]map[string]Object

	subMu       sync.RWMutex
	subscribers []func(UploadEvent)
}

// New creates a store whose presigned URLs are signed with secret.
func New(secret string, clock vclock.Clock) *Store {
	if clock == nil {
		clock = vclock.NewReal()
	}
	return &Store{
		secret:  []byte(secret),
		clock:   clock,
		buckets: make(map[string]map[string]Object),
	}
}

// CreateBucket makes a new bucket.
func (s *Store) CreateBucket(name string) error {
	if name == "" || strings.ContainsAny(name, "/ ") {
		return fmt.Errorf("objectstore: invalid bucket name %q", name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.buckets[name]; ok {
		return fmt.Errorf("%w: %q", ErrBucketExists, name)
	}
	s.buckets[name] = make(map[string]Object)
	return nil
}

// EnsureBucket creates the bucket if absent.
func (s *Store) EnsureBucket(name string) error {
	err := s.CreateBucket(name)
	if errors.Is(err, ErrBucketExists) {
		return nil
	}
	return err
}

// Put stores data under bucket/key and returns the object's ETag.
func (s *Store) Put(bucket, key string, data []byte, contentType string) (string, error) {
	if key == "" {
		return "", fmt.Errorf("objectstore: empty key")
	}
	sum := sha256.Sum256(data)
	etag := hex.EncodeToString(sum[:8])
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[bucket]
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrNoSuchBucket, bucket)
	}
	b[key] = Object{
		Key:          key,
		Data:         append([]byte(nil), data...),
		ContentType:  contentType,
		ETag:         etag,
		LastModified: s.clock.Now(),
	}
	s.notify(UploadEvent{Bucket: bucket, Key: key, ETag: etag, Size: len(data)})
	return etag, nil
}

// Subscribe registers fn to receive upload events. Delivery is
// asynchronous and at-most-once; subscribers must tolerate missing
// events on shutdown.
func (s *Store) Subscribe(fn func(UploadEvent)) {
	s.subMu.Lock()
	defer s.subMu.Unlock()
	s.subscribers = append(s.subscribers, fn)
}

// notify fans an event out to subscribers without blocking the writer.
func (s *Store) notify(ev UploadEvent) {
	s.subMu.RLock()
	subs := make([]func(UploadEvent), len(s.subscribers))
	copy(subs, s.subscribers)
	s.subMu.RUnlock()
	for _, fn := range subs {
		go fn(ev)
	}
}

// Get returns the object at bucket/key.
func (s *Store) Get(bucket, key string) (Object, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.buckets[bucket]
	if !ok {
		return Object{}, fmt.Errorf("%w: %q", ErrNoSuchBucket, bucket)
	}
	o, ok := b[key]
	if !ok {
		return Object{}, fmt.Errorf("%w: %s/%s", ErrNoSuchKey, bucket, key)
	}
	return o, nil
}

// Delete removes bucket/key. Deleting an absent key is not an error
// (matching S3 semantics).
func (s *Store) Delete(bucket, key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[bucket]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchBucket, bucket)
	}
	delete(b, key)
	return nil
}

// Presign produces the query string carrying a signature that
// authorizes one method on bucket/key until expiry. The canonical
// string covers method, path and expiry, so a GET URL cannot be
// replayed as a PUT and vice versa.
func (s *Store) Presign(method, bucket, key string, ttl time.Duration) url.Values {
	expires := s.clock.Now().Add(ttl).Unix()
	sig := s.sign(method, bucket, key, expires)
	v := url.Values{}
	v.Set("X-Oprc-Expires", strconv.FormatInt(expires, 10))
	v.Set("X-Oprc-Signature", sig)
	return v
}

// PresignURL renders a complete presigned URL for the store served at
// baseURL (e.g. "http://127.0.0.1:9000").
func (s *Store) PresignURL(baseURL, method, bucket, key string, ttl time.Duration) string {
	q := s.Presign(method, bucket, key, ttl)
	return fmt.Sprintf("%s/%s/%s?%s", strings.TrimRight(baseURL, "/"),
		url.PathEscape(bucket), escapeKeyPath(key), q.Encode())
}

// escapeKeyPath escapes each segment of an object key but keeps "/".
func escapeKeyPath(key string) string {
	parts := strings.Split(key, "/")
	for i, p := range parts {
		parts[i] = url.PathEscape(p)
	}
	return strings.Join(parts, "/")
}

// Verify checks a presigned query for the given method/bucket/key.
func (s *Store) Verify(method, bucket, key string, query url.Values) error {
	expStr := query.Get("X-Oprc-Expires")
	sig := query.Get("X-Oprc-Signature")
	if expStr == "" || sig == "" {
		return fmt.Errorf("%w: missing parameters", ErrInvalidSignature)
	}
	expires, err := strconv.ParseInt(expStr, 10, 64)
	if err != nil {
		return fmt.Errorf("%w: bad expiry", ErrInvalidSignature)
	}
	if s.clock.Now().Unix() > expires {
		return fmt.Errorf("%w: expired", ErrInvalidSignature)
	}
	want := s.sign(method, bucket, key, expires)
	if !hmac.Equal([]byte(want), []byte(sig)) {
		return fmt.Errorf("%w: signature mismatch", ErrInvalidSignature)
	}
	return nil
}

// sign computes the HMAC-SHA256 signature over the canonical request.
func (s *Store) sign(method, bucket, key string, expires int64) string {
	mac := hmac.New(sha256.New, s.secret)
	fmt.Fprintf(mac, "%s\n%s\n%s\n%d", strings.ToUpper(method), bucket, key, expires)
	return hex.EncodeToString(mac.Sum(nil))
}

// Handler serves the store over HTTP with S3-style paths
// /{bucket}/{key...}. All requests must carry a valid presigned
// signature; this mirrors Oparaca handing function code presigned URLs
// rather than credentials.
func (s *Store) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		path := strings.TrimPrefix(r.URL.Path, "/")
		bucket, key, ok := strings.Cut(path, "/")
		if !ok || bucket == "" || key == "" {
			http.Error(w, "expected /{bucket}/{key}", http.StatusBadRequest)
			return
		}
		bucket, err := url.PathUnescape(bucket)
		if err != nil {
			http.Error(w, "bad bucket encoding", http.StatusBadRequest)
			return
		}
		key, err = url.PathUnescape(key)
		if err != nil {
			http.Error(w, "bad key encoding", http.StatusBadRequest)
			return
		}
		if err := s.Verify(r.Method, bucket, key, r.URL.Query()); err != nil {
			http.Error(w, err.Error(), http.StatusForbidden)
			return
		}
		switch r.Method {
		case http.MethodGet:
			obj, err := s.Get(bucket, key)
			if err != nil {
				writeStoreError(w, err)
				return
			}
			if obj.ContentType != "" {
				w.Header().Set("Content-Type", obj.ContentType)
			}
			w.Header().Set("ETag", obj.ETag)
			w.Header().Set("Last-Modified", obj.LastModified.UTC().Format(http.TimeFormat))
			_, _ = w.Write(obj.Data)
		case http.MethodPut:
			data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 64<<20))
			if err != nil {
				http.Error(w, "body too large or unreadable", http.StatusBadRequest)
				return
			}
			etag, err := s.Put(bucket, key, data, r.Header.Get("Content-Type"))
			if err != nil {
				writeStoreError(w, err)
				return
			}
			w.Header().Set("ETag", etag)
			w.WriteHeader(http.StatusOK)
		case http.MethodDelete:
			if err := s.Delete(bucket, key); err != nil {
				writeStoreError(w, err)
				return
			}
			w.WriteHeader(http.StatusNoContent)
		default:
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	})
}

// writeStoreError maps store errors to HTTP statuses.
func writeStoreError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrNoSuchBucket), errors.Is(err, ErrNoSuchKey):
		http.Error(w, err.Error(), http.StatusNotFound)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
