package core

import (
	"context"
	"strings"
	"sync"

	"github.com/hpcclab/oparaca-go/internal/invoker"
	"github.com/hpcclab/oparaca-go/internal/vclock"
)

// routingTransport dispatches invocation tasks by image name: plain
// image names resolve through the in-process registry, while images of
// the form "http://host:port/img/name" are offloaded over HTTP to an
// external code-execution runtime. This realizes the paper's
// platform-agnostic claim (§III-C): "any FaaS engine can accept this
// task ... connecting the other FaaS engine can be done by configuring
// the URL".
type routingTransport struct {
	local *invoker.Local
	// clock is the platform's: a remote attempt's timeout and its retry
	// backoff run on it.
	clock vclock.Clock

	mu      sync.Mutex
	clients map[string]*invoker.Client // base URL -> client
}

var _ invoker.Transport = (*routingTransport)(nil)

// newRoutingTransport wraps the image registry with URL dispatch.
func newRoutingTransport(registry *invoker.Registry, clock vclock.Clock) *routingTransport {
	return &routingTransport{
		local:   invoker.NewLocal(registry),
		clock:   clock,
		clients: make(map[string]*invoker.Client),
	}
}

// splitRemoteImage splits "http://host/img/x" into base URL and image
// name. ok is false for local image names.
func splitRemoteImage(image string) (baseURL, name string, ok bool) {
	if !strings.HasPrefix(image, "http://") && !strings.HasPrefix(image, "https://") {
		return "", "", false
	}
	scheme, rest, _ := strings.Cut(image, "://")
	host, path, found := strings.Cut(rest, "/")
	if !found || host == "" || path == "" {
		return "", "", false
	}
	return scheme + "://" + host, path, true
}

// Offload implements invoker.Transport.
func (t *routingTransport) Offload(ctx context.Context, image string, task invoker.Task) (invoker.Result, error) {
	baseURL, name, remote := splitRemoteImage(image)
	if !remote {
		return t.local.Offload(ctx, image, task)
	}
	t.mu.Lock()
	client, ok := t.clients[baseURL]
	if !ok {
		client = invoker.NewClient(invoker.ClientConfig{BaseURL: baseURL, Retries: 2, Clock: t.clock})
		t.clients[baseURL] = client
	}
	t.mu.Unlock()
	return client.Offload(ctx, name, task)
}
