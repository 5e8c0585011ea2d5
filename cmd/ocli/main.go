// Command ocli is the Oparaca command-line client (paper §IV step 2:
// "Oparaca includes the CLI to facilitate the Oparaca API
// interaction"). It speaks the REST gateway served by cmd/oparaca.
//
// Usage:
//
//	ocli [-s http://localhost:8020] <command> [args]
//
// Commands:
//
//	apply <package.yaml|json>          deploy a class package
//	classes                            list deployed classes
//	class <name>                       show a resolved class
//	create <class> [id]                create an object
//	objects [class]                    list objects
//	object <id>                        show an object's class
//	delete <id>                        delete an object
//	invoke <id> <fn> [-d payload] [-a k=v]... [-t 0]   invoke a method/dataflow
//	                                   (-t sets a per-request deadline)
//	invoke-async <id> <fn> [-d payload] [-a k=v]... [-t 0]  enqueue an async invocation
//	invocation <id>                    poll one async invocation record
//	invoke-wait <invocation-id> [-t 30s]  poll until completed/failed/expired
//	state-get <id> <key>               read a structured state key
//	state-set <id> <key> <json>        write a structured state key
//	file-url <id> <key> [GET|PUT|DELETE]  presigned URL for a file key
//	triggers                           list dynamic trigger subscriptions
//	subscribe <name> -class C -on EV [-prefix P] [-object O] [-fn F] [-url U]
//	                                   add/replace a trigger subscription
//	unsubscribe <name>                 remove a trigger subscription
//	tail <id> [-n max] [-t 30s] [-from N]  stream an object's events (SSE);
//	                                   -from replays stored history from offset N
//	                                   (offsets count events logged since the
//	                                   object was first observed)
//	traces [-n max]                    list kept invocation traces (newest first)
//	trace <trace-id|invocation-id>     show one kept trace (by trace ID, or by
//	                                   the async invocation ID it carried)
//	stats                              platform statistics
//	health                             readiness probe (breaker state, queue
//	                                   depth, trigger backlog); exits 1 when
//	                                   the platform is degraded or saturated
//	actions                            optimizer decision log
//	cluster                            ownership layer: live members, lease
//	                                   ages, epoch, failover counters
//
// The server address can also be set via the OPARACA_URL environment
// variable.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

func main() {
	server := flag.String("s", envOr("OPARACA_URL", "http://localhost:8020"), "gateway base URL")
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	c := &client{base: strings.TrimRight(*server, "/")}
	if err := c.dispatch(args); err != nil {
		fmt.Fprintln(os.Stderr, "ocli:", err)
		os.Exit(1)
	}
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

func usage() {
	fmt.Fprintf(os.Stderr, `ocli — Oparaca CLI

usage: ocli [-s http://localhost:8020] <command> [args]

commands:
  apply <package.yaml|json>
  classes | class <name>
  create <class> [id] | objects [class] | object <id> | delete <id>
  invoke <id> <fn> [-d payload] [-a k=v]... [-t deadline]
  invoke-async <id> <fn> [-d payload] [-a k=v]... [-t deadline]
  invocation <id> | invoke-wait <invocation-id> [-t 30s]
  state-get <id> <key> | state-set <id> <key> <json>
  file-url <id> <key> [GET|PUT|DELETE]
  triggers | subscribe <name> -class C -on EV [-prefix P] [-object O] [-fn F] [-url U]
  unsubscribe <name> | tail <id> [-n max] [-t 30s] [-from offset]
  traces [-n max] | trace <trace-id|invocation-id>
  stats | health | actions | cluster
`)
}

type client struct {
	base string
}

// dispatch routes one CLI invocation.
func (c *client) dispatch(args []string) error {
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "apply":
		return c.apply(rest)
	case "classes":
		return c.getAndPrint("/api/classes")
	case "class":
		if len(rest) != 1 {
			return fmt.Errorf("usage: class <name>")
		}
		return c.getAndPrint("/api/classes/" + url.PathEscape(rest[0]))
	case "create":
		return c.create(rest)
	case "objects":
		path := "/api/objects"
		if len(rest) == 1 {
			path += "?class=" + url.QueryEscape(rest[0])
		}
		return c.getAndPrint(path)
	case "object":
		if len(rest) != 1 {
			return fmt.Errorf("usage: object <id>")
		}
		return c.getAndPrint("/api/objects/" + url.PathEscape(rest[0]))
	case "delete":
		if len(rest) != 1 {
			return fmt.Errorf("usage: delete <id>")
		}
		return c.request(http.MethodDelete, "/api/objects/"+url.PathEscape(rest[0]), "", nil, nil)
	case "invoke":
		return c.invoke(rest, false)
	case "invoke-async":
		return c.invoke(rest, true)
	case "invocation":
		if len(rest) != 1 {
			return fmt.Errorf("usage: invocation <id>")
		}
		return c.getAndPrint("/api/invocations/" + url.PathEscape(rest[0]))
	case "invoke-wait":
		return c.invokeWait(rest)
	case "state-get":
		if len(rest) != 2 {
			return fmt.Errorf("usage: state-get <id> <key>")
		}
		return c.getAndPrint(fmt.Sprintf("/api/objects/%s/state/%s", url.PathEscape(rest[0]), url.PathEscape(rest[1])))
	case "state-set":
		if len(rest) != 3 {
			return fmt.Errorf("usage: state-set <id> <key> <json>")
		}
		return c.request(http.MethodPut,
			fmt.Sprintf("/api/objects/%s/state/%s", url.PathEscape(rest[0]), url.PathEscape(rest[1])),
			"application/json", []byte(rest[2]), nil)
	case "file-url":
		return c.fileURL(rest)
	case "triggers":
		return c.getAndPrint("/api/triggers")
	case "subscribe":
		return c.subscribe(rest)
	case "unsubscribe":
		if len(rest) != 1 {
			return fmt.Errorf("usage: unsubscribe <name>")
		}
		return c.request(http.MethodDelete, "/api/triggers/"+url.PathEscape(rest[0]), "", nil, nil)
	case "tail":
		return c.tail(rest)
	case "traces":
		return c.traces(rest)
	case "trace":
		return c.trace(rest)
	case "stats":
		return c.getAndPrint("/api/stats")
	case "cluster":
		return c.getAndPrint("/api/cluster")
	case "health":
		return c.health()
	case "actions":
		return c.getAndPrint("/api/optimizer/actions")
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// apply deploys a package file.
func (c *client) apply(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: apply <package.yaml|json>")
	}
	raw, err := os.ReadFile(args[0])
	if err != nil {
		return err
	}
	ct := "application/yaml"
	if strings.EqualFold(filepath.Ext(args[0]), ".json") {
		ct = "application/json"
	}
	return c.request(http.MethodPost, "/api/packages", ct, raw, printJSON)
}

// create makes an object.
func (c *client) create(args []string) error {
	if len(args) < 1 || len(args) > 2 {
		return fmt.Errorf("usage: create <class> [id]")
	}
	body := map[string]string{"class": args[0]}
	if len(args) == 2 {
		body["id"] = args[1]
	}
	raw, _ := json.Marshal(body)
	return c.request(http.MethodPost, "/api/objects", "application/json", raw, printJSON)
}

// invoke calls a method; -d sets the payload, repeated -a k=v set args.
// async routes through the fire-and-poll endpoint, printing the
// invocation ID instead of blocking on the result.
func (c *client) invoke(args []string, async bool) error {
	verb := "invoke"
	if async {
		verb = "invoke-async"
	}
	fs := flag.NewFlagSet(verb, flag.ContinueOnError)
	payload := fs.String("d", "", "JSON payload")
	timeout := fs.Duration("t", 0, "per-request invocation deadline (0 = class/platform default)")
	var kvs multiFlag
	fs.Var(&kvs, "a", "invocation arg k=v (repeatable)")
	// Positional args come first: <id> <fn>.
	if len(args) < 2 {
		return fmt.Errorf("usage: %s <id> <fn> [-d payload] [-a k=v]...", verb)
	}
	id, fn := args[0], args[1]
	if err := fs.Parse(args[2:]); err != nil {
		return err
	}
	q := url.Values{}
	for _, kv := range kvs {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return fmt.Errorf("bad -a %q (want k=v)", kv)
		}
		q.Set(k, v)
	}
	if *timeout > 0 {
		q.Set("timeoutMs", strconv.FormatInt(timeout.Milliseconds(), 10))
	}
	path := fmt.Sprintf("/api/objects/%s/%s/%s", url.PathEscape(id), verb, url.PathEscape(fn))
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	return c.request(http.MethodPost, path, "application/json", []byte(*payload), printJSON)
}

// invokeWait blocks on an invocation record until it reaches a
// terminal status or the -t timeout elapses, then prints the final
// record. It rides the gateway's long-poll (?waitMs=N): each request
// parks server-side until the record goes terminal or the bounded wait
// elapses, so no client-side sleep loop burns requests.
func (c *client) invokeWait(args []string) error {
	fs := flag.NewFlagSet("invoke-wait", flag.ContinueOnError)
	timeout := fs.Duration("t", 30*time.Second, "polling timeout")
	if len(args) < 1 {
		return fmt.Errorf("usage: invoke-wait <invocation-id> [-t 30s]")
	}
	id := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	// Per-request waits stay under the gateway's 30s long-poll cap; the
	// loop re-arms until the overall -t budget runs out.
	const maxWait = 10 * time.Second
	deadline := time.Now().Add(*timeout)
	for {
		wait := min(maxWait, time.Until(deadline))
		if wait < 0 {
			wait = 0
		}
		path := fmt.Sprintf("/api/invocations/%s?waitMs=%d", url.PathEscape(id), wait.Milliseconds())
		var status string
		var raw []byte
		err := c.request(http.MethodGet, path, "", nil, func(body []byte) {
			raw = body
			var rec struct {
				Status string `json:"status"`
			}
			if json.Unmarshal(body, &rec) == nil {
				status = rec.Status
			}
		})
		if err != nil {
			return err
		}
		if status == "completed" || status == "failed" || status == "expired" {
			printJSON(raw)
			return nil
		}
		if !time.Now().Before(deadline) {
			return fmt.Errorf("invocation %s still %q after %v", id, status, *timeout)
		}
	}
}

// subscribe adds or replaces a named trigger subscription: -class and
// -on select the events, -fn/-object route them to a method (the
// data-triggered chain) or -url to a webhook.
func (c *client) subscribe(args []string) error {
	fs := flag.NewFlagSet("subscribe", flag.ContinueOnError)
	class := fs.String("class", "", "emitting class (required)")
	on := fs.String("on", "", "event: stateChanged | invocationCompleted | invocationFailed")
	prefix := fs.String("prefix", "", "state-key prefix filter (stateChanged only)")
	object := fs.String("object", "", "target object id (default: the emitting object)")
	fn := fs.String("fn", "", "target method (data-triggered chaining)")
	hook := fs.String("url", "", "webhook URL")
	if len(args) < 1 {
		return fmt.Errorf("usage: subscribe <name> -class C -on EV [-prefix P] [-object O] [-fn F] [-url U]")
	}
	name := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	body, _ := json.Marshal(map[string]string{
		"class": *class, "type": *on, "keyPrefix": *prefix,
		"targetObject": *object, "targetFunction": *fn, "webhook": *hook,
	})
	return c.request(http.MethodPut, "/api/triggers/"+url.PathEscape(name), "application/json", body, printJSON)
}

// tail streams an object's events over the gateway's SSE feed,
// printing one JSON event per line until -n events arrived, the -t
// timeout elapsed, or the server closed the stream. With -from N the
// gateway first replays retained event-log history starting at
// offset N, then continues live. An object's log begins with the first
// event someone could read (a subscription on its class, an open
// tail): offsets count logged events from 1, and -from 1 on an object
// nobody has observed replays nothing and goes straight to live.
func (c *client) tail(args []string) error {
	fs := flag.NewFlagSet("tail", flag.ContinueOnError)
	max := fs.Int("n", 0, "stop after this many events (0 = until timeout)")
	timeout := fs.Duration("t", 30*time.Second, "stream duration")
	from := fs.Int64("from", 0, "replay stored events from this offset, then continue live (0 = live only; offsets count events logged since the object was first observed)")
	if len(args) < 1 {
		return fmt.Errorf("usage: tail <object-id> [-n max] [-t 30s] [-from offset]")
	}
	id := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	target := c.base + "/api/objects/" + url.PathEscape(id) + "/events"
	if *from > 0 {
		target += "?fromOffset=" + strconv.FormatInt(*from, 10)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, target, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	seen := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		fmt.Println(strings.TrimPrefix(line, "data: "))
		if seen++; *max > 0 && seen >= *max {
			return nil
		}
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil {
		return err
	}
	return nil
}

// traces lists kept invocation traces, newest first.
func (c *client) traces(args []string) error {
	fs := flag.NewFlagSet("traces", flag.ContinueOnError)
	max := fs.Int("n", 0, "cap the number of traces returned (0 = all retained)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	path := "/api/traces"
	if *max > 0 {
		path += "?n=" + strconv.Itoa(*max)
	}
	return c.getAndPrint(path)
}

// trace shows one kept trace: the argument is tried as a hex trace ID
// first, then as an async invocation ID (the gateway indexes kept
// traces both ways).
func (c *client) trace(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: trace <trace-id|invocation-id>")
	}
	id := url.PathEscape(args[0])
	if err := c.getAndPrint("/api/traces/" + id); err == nil {
		return nil
	}
	return c.getAndPrint("/api/invocations/" + id + "/trace")
}

// health probes GET /readyz and prints the readiness report. Unlike
// the generic request helper it prints the body even on 503 — the
// report (breaker state, queue depth, trigger backlog) is the point —
// and signals not-ready through the exit status for scripts.
func (c *client) health() error {
	resp, err := http.Get(c.base + "/readyz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	printJSON(raw)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("not ready (HTTP %d)", resp.StatusCode)
	}
	return nil
}

// fileURL prints a presigned URL.
func (c *client) fileURL(args []string) error {
	if len(args) < 2 || len(args) > 3 {
		return fmt.Errorf("usage: file-url <id> <key> [GET|PUT|DELETE]")
	}
	method := "GET"
	if len(args) == 3 {
		method = strings.ToUpper(args[2])
	}
	path := fmt.Sprintf("/api/objects/%s/files/%s/url?method=%s",
		url.PathEscape(args[0]), url.PathEscape(args[1]), url.QueryEscape(method))
	return c.getAndPrint(path)
}

// multiFlag collects repeated flag values.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(s string) error { *m = append(*m, s); return nil }

// getAndPrint issues a GET and pretty-prints the JSON response.
func (c *client) getAndPrint(path string) error {
	return c.request(http.MethodGet, path, "", nil, printJSON)
}

// request performs one HTTP call; non-2xx responses become errors
// carrying the server's error message.
func (c *client) request(method, path, contentType string, body []byte, onOK func([]byte)) error {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(raw, &e) == nil && e.Error != "" {
			return fmt.Errorf("%s (HTTP %d)", e.Error, resp.StatusCode)
		}
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	if onOK != nil && len(raw) > 0 {
		onOK(raw)
	}
	return nil
}

// printJSON pretty-prints a JSON body.
func printJSON(raw []byte) {
	var buf bytes.Buffer
	if err := json.Indent(&buf, raw, "", "  "); err != nil {
		fmt.Println(strings.TrimSpace(string(raw)))
		return
	}
	fmt.Println(buf.String())
}
