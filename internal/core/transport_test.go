package core

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hpcclab/oparaca-go/internal/invoker"
	"github.com/hpcclab/oparaca-go/internal/vclock"
)

func TestSplitRemoteImage(t *testing.T) {
	cases := []struct {
		in         string
		base, name string
		ok         bool
	}{
		{"img/resize", "", "", false},
		{"http://10.0.0.1:8080/img/resize", "http://10.0.0.1:8080", "img/resize", true},
		{"https://faas.example/fn", "https://faas.example", "fn", true},
		{"http://hostonly", "", "", false},
	}
	for _, c := range cases {
		base, name, ok := splitRemoteImage(c.in)
		if base != c.base || name != c.name || ok != c.ok {
			t.Errorf("splitRemoteImage(%q) = (%q, %q, %v), want (%q, %q, %v)",
				c.in, base, name, ok, c.base, c.name, c.ok)
		}
	}
}

// TestRemoteImageOffloadedOverHTTP stands up an external function
// runtime (an invoker.Server) and deploys a class whose image is that
// runtime's URL — the paper's "any FaaS engine, configure the URL"
// integration path.
func TestRemoteImageOffloadedOverHTTP(t *testing.T) {
	remoteReg := invoker.NewRegistry()
	remoteReg.Register("img/remote-echo", invoker.HandlerFunc(func(_ context.Context, task invoker.Task) (invoker.Result, error) {
		return invoker.Result{Output: json.RawMessage(`"from-remote"`)}, nil
	}))
	remote := httptest.NewServer(invoker.Server(remoteReg))
	defer remote.Close()

	p, err := New(Config{Workers: 1, ColdStart: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	pkg := "classes:\n  - name: R\n    functions:\n      - name: f\n        image: " + remote.URL + "/img/remote-echo\n"
	ctx := context.Background()
	if _, err := p.DeployYAML(ctx, []byte(pkg)); err != nil {
		t.Fatal(err)
	}
	id, err := p.CreateObject(ctx, "R", "")
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.Invoke(ctx, id, "f", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != `"from-remote"` {
		t.Fatalf("out = %s", out)
	}
}

// sleepClock is a Manual clock that reports each positive sleep once it
// is armed. The report never blocks the sleeper: a full channel drops it,
// so size armed above the sleeps a test lets pass unread.
type sleepClock struct {
	*vclock.Manual
	armed chan time.Duration
}

func (c sleepClock) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return c.Manual.Sleep(ctx, d)
	}
	wake := c.After(d)
	select {
	case c.armed <- d:
	default:
	}
	select {
	case <-wake:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// TestRemoteImageBacksOffOnThePlatformClock: a remote image's retry
// backoff is armed on the platform's clock, so on a Manual clock the
// retry after a failed attempt waits for Advance, not for real time.
func TestRemoteImageBacksOffOnThePlatformClock(t *testing.T) {
	remoteReg := invoker.NewRegistry()
	remoteReg.Register("img/remote-echo", invoker.HandlerFunc(func(context.Context, invoker.Task) (invoker.Result, error) {
		return invoker.Result{Output: json.RawMessage(`"from-remote"`)}, nil
	}))
	var posts atomic.Int32
	serve := invoker.Server(remoteReg)
	remote := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if posts.Add(1) == 1 {
			http.Error(w, "warming up", http.StatusInternalServerError)
			return
		}
		serve.ServeHTTP(w, r)
	}))
	defer remote.Close()

	clock := sleepClock{vclock.NewManual(time.Unix(1_700_000_000, 0)), make(chan time.Duration, 64)}
	no := false
	p, err := New(Config{Workers: 1, Clock: clock, ServeObjectStore: &no})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// Not persistent: the ephemeral template starts a warm pod, so no
	// cold start waits on the clock ahead of the offload.
	pkg := "classes:\n  - name: R\n    constraint:\n      persistent: false\n    functions:\n      - name: f\n        image: " + remote.URL + "/img/remote-echo\n"
	ctx := context.Background()
	if _, err := p.DeployYAML(ctx, []byte(pkg)); err != nil {
		t.Fatal(err)
	}
	id, err := p.CreateObject(ctx, "R", "")
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		out json.RawMessage
		err error
	}
	done := make(chan result, 1)
	go func() {
		out, err := p.Invoke(ctx, id, "f", nil, nil)
		done <- result{out, err}
	}()
	const backoff = 10 * time.Millisecond // the invoker's first retry delay
	for armed := false; !armed; {
		select {
		case d := <-clock.armed:
			armed = d == backoff
		case r := <-done:
			t.Fatalf("Invoke returned (%s, %v) before its retry backoff was armed on the platform's clock", r.out, r.err)
		case <-time.After(10 * time.Second):
			t.Fatalf("no retry backoff armed on the platform's clock; %d timers, %d posts", clock.Pending(), posts.Load())
		}
	}
	select {
	case r := <-done:
		t.Fatalf("Invoke returned (%s, %v) before the clock reached its retry", r.out, r.err)
	default:
	}
	clock.Advance(backoff)
	r := <-done
	if r.err != nil || string(r.out) != `"from-remote"` {
		t.Fatalf("Invoke = %s, %v", r.out, r.err)
	}
	if n := posts.Load(); n != 2 {
		t.Fatalf("remote served %d attempts, want 2", n)
	}
}
