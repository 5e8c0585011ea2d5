package dataflow

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"github.com/hpcclab/oparaca-go/internal/model"
)

// step builds a DataflowStep briefly.
func step(name, fn string, after ...string) model.DataflowStep {
	return model.DataflowStep{Name: name, Function: fn, After: after}
}

// appendInvoker returns an Invoke that appends the function name to
// the (string) payload, making data flow observable.
func appendInvoker() Invoke {
	return func(_ context.Context, fn string, payload json.RawMessage) (json.RawMessage, error) {
		var s string
		if len(payload) > 0 {
			if err := json.Unmarshal(payload, &s); err != nil {
				return nil, err
			}
		}
		out, _ := json.Marshal(s + "|" + fn)
		return out, nil
	}
}

func TestCompileRejectsEmpty(t *testing.T) {
	if _, err := Compile(model.DataflowDef{Name: "d"}); err == nil {
		t.Fatal("empty flow compiled")
	}
}

func TestCompileRejectsCycle(t *testing.T) {
	def := model.DataflowDef{Name: "d", Steps: []model.DataflowStep{
		step("a", "f", "b"),
		step("b", "f", "a"),
	}}
	if _, err := Compile(def); !errors.Is(err, ErrCycle) {
		t.Fatalf("err = %v, want ErrCycle", err)
	}
}

func TestCompileRejectsSelfInputRef(t *testing.T) {
	def := model.DataflowDef{Name: "d", Steps: []model.DataflowStep{
		{Name: "a", Function: "f", Input: "steps.a.output"},
	}}
	if _, err := Compile(def); !errors.Is(err, ErrBadInputRef) {
		t.Fatalf("err = %v", err)
	}
}

func TestCompileRejectsUnknownInputRef(t *testing.T) {
	def := model.DataflowDef{Name: "d", Steps: []model.DataflowStep{
		{Name: "a", Function: "f", Input: "steps.ghost.output"},
	}}
	if _, err := Compile(def); !errors.Is(err, ErrBadInputRef) {
		t.Fatalf("err = %v", err)
	}
}

func TestCompileRejectsUnknownDep(t *testing.T) {
	def := model.DataflowDef{Name: "d", Steps: []model.DataflowStep{
		step("a", "f", "ghost"),
	}}
	if _, err := Compile(def); err == nil {
		t.Fatal("unknown dep compiled")
	}
}

func TestTopologicalOrder(t *testing.T) {
	def := model.DataflowDef{Name: "d", Steps: []model.DataflowStep{
		step("c", "f", "b"),
		step("a", "f"),
		step("b", "f", "a"),
	}}
	p, err := Compile(def)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(p.order, ","); got != "a,b,c" {
		t.Fatalf("order = %s", got)
	}
}

func TestExecuteChainThreadsData(t *testing.T) {
	def := model.DataflowDef{Name: "chain", Steps: []model.DataflowStep{
		step("first", "f1"),
		{Name: "second", Function: "f2", Input: "steps.first.output"},
		{Name: "third", Function: "f3", Input: "steps.second.output"},
	}}
	p, err := Compile(def)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Execute(context.Background(), json.RawMessage(`"in"`), appendInvoker())
	if err != nil {
		t.Fatal(err)
	}
	var out string
	if err := json.Unmarshal(res.Output, &out); err != nil {
		t.Fatal(err)
	}
	if out != "in|f1|f2|f3" {
		t.Fatalf("output = %q", out)
	}
	if len(res.Steps) != 3 {
		t.Fatalf("steps = %d", len(res.Steps))
	}
}

func TestExecuteImplicitDepFromInputRef(t *testing.T) {
	// No After declared; Input alone must force ordering.
	def := model.DataflowDef{Name: "implicit", Steps: []model.DataflowStep{
		{Name: "consumer", Function: "f2", Input: "steps.producer.output"},
		{Name: "producer", Function: "f1"},
	}}
	p, err := Compile(def)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Execute(context.Background(), json.RawMessage(`"x"`), appendInvoker())
	if err != nil {
		t.Fatal(err)
	}
	var out string
	json.Unmarshal(res.Steps["consumer"].Output, &out)
	if out != "x|f1|f2" {
		t.Fatalf("consumer output = %q; input ref did not order steps", out)
	}
}

func TestExecuteDiamondParallelism(t *testing.T) {
	// a -> (b, c) -> d. b and c each sleep; if they run concurrently
	// the whole flow finishes in ~1 sleep, not 2.
	const delay = 60 * time.Millisecond
	def := model.DataflowDef{Name: "diamond", Output: "d", Steps: []model.DataflowStep{
		step("a", "fa"),
		step("b", "slow", "a"),
		step("c", "slow", "a"),
		step("d", "fd", "b", "c"),
	}}
	p, err := Compile(def)
	if err != nil {
		t.Fatal(err)
	}
	invoke := func(ctx context.Context, fn string, payload json.RawMessage) (json.RawMessage, error) {
		if fn == "slow" {
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return json.RawMessage(`"ok"`), nil
	}
	start := time.Now()
	if _, err := p.Execute(context.Background(), nil, invoke); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed >= 2*delay {
		t.Fatalf("diamond took %v; parallel branches ran sequentially", elapsed)
	}
}

func TestExecuteStepFailureCancelsRest(t *testing.T) {
	var invoked atomic.Int64
	def := model.DataflowDef{Name: "failing", Steps: []model.DataflowStep{
		step("bad", "boom"),
		step("after", "f", "bad"),
	}}
	p, err := Compile(def)
	if err != nil {
		t.Fatal(err)
	}
	invoke := func(_ context.Context, fn string, _ json.RawMessage) (json.RawMessage, error) {
		invoked.Add(1)
		if fn == "boom" {
			return nil, errors.New("exploded")
		}
		return nil, nil
	}
	_, err = p.Execute(context.Background(), nil, invoke)
	if !errors.Is(err, ErrStepFailed) {
		t.Fatalf("err = %v, want ErrStepFailed", err)
	}
	if invoked.Load() != 1 {
		t.Fatalf("%d functions invoked; dependent step ran after failure", invoked.Load())
	}
}

func TestExecuteFailureRecordedInStepResult(t *testing.T) {
	def := model.DataflowDef{Name: "f", Steps: []model.DataflowStep{step("only", "boom")}}
	p, _ := Compile(def)
	res, err := p.Execute(context.Background(), nil, func(context.Context, string, json.RawMessage) (json.RawMessage, error) {
		return nil, errors.New("kapow")
	})
	if err == nil {
		t.Fatal("no error returned")
	}
	if sr := res.Steps["only"]; sr.Err == "" || !strings.Contains(sr.Err, "kapow") {
		t.Fatalf("step result = %+v", sr)
	}
}

func TestExecuteContextCancellation(t *testing.T) {
	def := model.DataflowDef{Name: "slow", Steps: []model.DataflowStep{step("s", "hang")}}
	p, _ := Compile(def)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := p.Execute(ctx, nil, func(ctx context.Context, _ string, _ json.RawMessage) (json.RawMessage, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err == nil {
		t.Fatal("cancelled execute returned nil error")
	}
}

func TestExecuteDefaultOutputIsLastStep(t *testing.T) {
	def := model.DataflowDef{Name: "d", Steps: []model.DataflowStep{
		step("a", "fa"),
		step("b", "fb", "a"),
	}}
	p, _ := Compile(def)
	res, err := p.Execute(context.Background(), json.RawMessage(`""`), appendInvoker())
	if err != nil {
		t.Fatal(err)
	}
	var out string
	json.Unmarshal(res.Output, &out)
	if !strings.HasSuffix(out, "|fb") {
		t.Fatalf("default output = %q, want last step's", out)
	}
}

func TestExecuteExplicitOutputStep(t *testing.T) {
	def := model.DataflowDef{Name: "d", Output: "a", Steps: []model.DataflowStep{
		step("a", "fa"),
		step("b", "fb", "a"),
	}}
	p, _ := Compile(def)
	res, err := p.Execute(context.Background(), json.RawMessage(`""`), appendInvoker())
	if err != nil {
		t.Fatal(err)
	}
	var out string
	json.Unmarshal(res.Output, &out)
	if out != "|fa" {
		t.Fatalf("output = %q, want step a's", out)
	}
}

func TestExecuteFanOutAllRun(t *testing.T) {
	const n = 8
	var steps []model.DataflowStep
	steps = append(steps, step("src", "f"))
	for i := 0; i < n; i++ {
		steps = append(steps, step(fmt.Sprintf("w%d", i), "f", "src"))
	}
	def := model.DataflowDef{Name: "fan", Steps: steps}
	p, err := Compile(def)
	if err != nil {
		t.Fatal(err)
	}
	var count atomic.Int64
	_, err = p.Execute(context.Background(), nil, func(context.Context, string, json.RawMessage) (json.RawMessage, error) {
		count.Add(1)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count.Load() != n+1 {
		t.Fatalf("invocations = %d, want %d", count.Load(), n+1)
	}
}

func TestChangingFlowWithoutChangingFunctions(t *testing.T) {
	// The paper's §II-B claim: rewiring the flow definition alone
	// changes execution order using the same functions.
	seqDef := model.DataflowDef{Name: "v1", Steps: []model.DataflowStep{
		{Name: "s1", Function: "f1"},
		{Name: "s2", Function: "f2", Input: "steps.s1.output"},
	}}
	swappedDef := model.DataflowDef{Name: "v2", Steps: []model.DataflowStep{
		{Name: "s1", Function: "f2"},
		{Name: "s2", Function: "f1", Input: "steps.s1.output"},
	}}
	inv := appendInvoker()
	p1, _ := Compile(seqDef)
	p2, _ := Compile(swappedDef)
	r1, err := p1.Execute(context.Background(), json.RawMessage(`""`), inv)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := p2.Execute(context.Background(), json.RawMessage(`""`), inv)
	if err != nil {
		t.Fatal(err)
	}
	var o1, o2 string
	json.Unmarshal(r1.Output, &o1)
	json.Unmarshal(r2.Output, &o2)
	if o1 != "|f1|f2" || o2 != "|f2|f1" {
		t.Fatalf("flows = %q / %q", o1, o2)
	}
}

// Property: for random DAGs (edges only from lower to higher index,
// guaranteeing acyclicity), Compile succeeds and the topological order
// places every step after all of its dependencies.
func TestTopoOrderRespectsDepsProperty(t *testing.T) {
	prop := func(edgeBits []byte, nRaw uint8) bool {
		n := int(nRaw%6) + 2
		steps := make([]model.DataflowStep, n)
		for i := range steps {
			steps[i] = model.DataflowStep{Name: fmt.Sprintf("s%d", i), Function: "f"}
		}
		bit := 0
		next := func() bool {
			if bit/8 >= len(edgeBits) {
				return false
			}
			b := edgeBits[bit/8]&(1<<(bit%8)) != 0
			bit++
			return b
		}
		for j := 1; j < n; j++ {
			for i := 0; i < j; i++ {
				if next() {
					steps[j].After = append(steps[j].After, steps[i].Name)
				}
			}
		}
		p, err := Compile(model.DataflowDef{Name: "rand", Steps: steps})
		if err != nil {
			return false
		}
		pos := map[string]int{}
		for i, name := range p.order {
			pos[name] = i
		}
		for _, s := range steps {
			for _, dep := range s.After {
				if pos[dep] >= pos[s.Name] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
