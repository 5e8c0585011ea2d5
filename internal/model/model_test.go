package model

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// listing1 is the paper's Listing 1 class definition, verbatim in
// structure (Image with resize/changeFormat, LabelledImage extending
// it with detectObject).
const listing1 = `classes:
  - name: Image
    qos:
      throughput: 100 # rps
    constraint:
      persistent: true
    keySpecs:
      - name: image # File Image
        kind: file
    functions:
      - name: resize
        image: img/resize
      - name: changeFormat
        image: img/change-format
  - name: LabelledImage
    parent: Image
    functions:
      - name: detectObject
        image: img/detect-object
`

func parseListing1(t *testing.T) *Package {
	t.Helper()
	pkg, err := ParseYAML([]byte(listing1))
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

func TestParseListing1(t *testing.T) {
	pkg := parseListing1(t)
	if len(pkg.Classes) != 2 {
		t.Fatalf("classes = %d", len(pkg.Classes))
	}
	img := pkg.Classes[0]
	if img.Name != "Image" || img.QoS.ThroughputRPS != 100 {
		t.Fatalf("Image = %+v", img)
	}
	if !img.Constraint.IsPersistent() {
		t.Fatal("persistent constraint lost")
	}
	if img.KeySpecs[0].Kind != KindFile {
		t.Fatalf("key kind = %q", img.KeySpecs[0].Kind)
	}
	if pkg.Classes[1].Parent != "Image" {
		t.Fatalf("parent = %q", pkg.Classes[1].Parent)
	}
}

func TestParseJSONEquivalent(t *testing.T) {
	pkg := parseListing1(t)
	raw, err := json.Marshal(pkg)
	if err != nil {
		t.Fatal(err)
	}
	pkg2, err := ParseJSON(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg2.Classes) != 2 || pkg2.Classes[1].Functions[0].Image != "img/detect-object" {
		t.Fatalf("JSON round trip lost data: %+v", pkg2)
	}
}

func TestValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		yaml string
	}{
		{"no classes", "name: empty\n"},
		{"bad class name", "classes:\n  - name: 9bad\n"},
		{"self parent", "classes:\n  - name: A\n    parent: A\n"},
		{"duplicate class", "classes:\n  - name: A\n  - name: A\n"},
		{"bad key name", "classes:\n  - name: A\n    keySpecs:\n      - name: 'bad key'\n"},
		{"duplicate key", "classes:\n  - name: A\n    keySpecs:\n      - name: k\n      - name: k\n"},
		{"unknown kind", "classes:\n  - name: A\n    keySpecs:\n      - name: k\n        kind: blob\n"},
		{"file with default", "classes:\n  - name: A\n    keySpecs:\n      - name: k\n        kind: file\n        default: 1\n"},
		{"fn no image", "classes:\n  - name: A\n    functions:\n      - name: f\n"},
		{"duplicate fn", "classes:\n  - name: A\n    functions:\n      - name: f\n        image: i\n      - name: f\n        image: i\n"},
		{"negative throughput", "classes:\n  - name: A\n    qos:\n      throughput: -1\n"},
		{"bad availability", "classes:\n  - name: A\n    qos:\n      availability: 1.5\n"},
		{"negative budget", "classes:\n  - name: A\n    constraint:\n      budget: -5\n"},
		{"dataflow no steps", "classes:\n  - name: A\n    dataflows:\n      - name: d\n"},
		{"dataflow unknown dep", "classes:\n  - name: A\n    dataflows:\n      - name: d\n        steps:\n          - name: s\n            function: f\n            after: [ghost]\n"},
		{"dataflow bad output", "classes:\n  - name: A\n    dataflows:\n      - name: d\n        output: ghost\n        steps:\n          - name: s\n            function: f\n"},
		{"negative class timeoutMs", "classes:\n  - name: A\n    timeoutMs: -1\n"},
		{"negative fn timeoutMs", "classes:\n  - name: A\n    functions:\n      - name: f\n        image: i\n        timeoutMs: -1\n"},
		// Past MaxTimeoutMs the millisecond-to-Duration conversion wraps:
		// to 448.384us and to a negative (no) deadline.
		{"class timeoutMs overflows a Duration", "classes:\n  - name: A\n    timeoutMs: 18446744073710\n"},
		{"fn timeoutMs overflows a Duration", "classes:\n  - name: A\n    functions:\n      - name: f\n        image: i\n        timeoutMs: 9300000000000\n"},
		{"class timeoutMs one past the bound", "classes:\n  - name: A\n    timeoutMs: 9223372036855\n"},
		{"dataflow collides with fn", "classes:\n  - name: A\n    functions:\n      - name: x\n        image: i\n    dataflows:\n      - name: x\n        steps:\n          - name: s\n            function: x\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := ParseYAML([]byte(c.yaml)); !errors.Is(err, ErrValidation) {
				t.Fatalf("err = %v, want ErrValidation", err)
			}
		})
	}
}

// TestTimeoutMsAtTheBound: the largest timeoutMs a package may declare
// is still a positive Duration.
func TestTimeoutMsAtTheBound(t *testing.T) {
	yaml := fmt.Sprintf("classes:\n  - name: A\n    timeoutMs: %d\n", MaxTimeoutMs)
	if _, err := ParseYAML([]byte(yaml)); err != nil {
		t.Fatalf("timeoutMs %d refused: %v", MaxTimeoutMs, err)
	}
	if d := time.Duration(MaxTimeoutMs) * time.Millisecond; d <= 0 {
		t.Fatalf("MaxTimeoutMs is %v, not a deadline", d)
	}
}

func TestResolveInheritance(t *testing.T) {
	pkg := parseListing1(t)
	classes, err := Resolve(pkg, nil)
	if err != nil {
		t.Fatal(err)
	}
	li := classes["LabelledImage"]
	if li == nil {
		t.Fatal("LabelledImage not resolved")
	}
	// Inherited functions + own.
	names := make([]string, 0, len(li.Functions))
	for _, f := range li.Functions {
		names = append(names, f.Name)
	}
	want := "changeFormat,detectObject,resize"
	if got := strings.Join(names, ","); got != want {
		t.Fatalf("functions = %s, want %s", got, want)
	}
	// Inherited key.
	if _, ok := li.Key("image"); !ok {
		t.Fatal("inherited key missing")
	}
	// Inherited QoS.
	if li.QoS.ThroughputRPS != 100 {
		t.Fatalf("inherited throughput = %v", li.QoS.ThroughputRPS)
	}
	// Ancestry.
	if len(li.Ancestry) != 1 || li.Ancestry[0] != "Image" {
		t.Fatalf("ancestry = %v", li.Ancestry)
	}
	if !li.IsSubclassOf("Image") || !li.IsSubclassOf("LabelledImage") {
		t.Fatal("IsSubclassOf wrong")
	}
	if classes["Image"].IsSubclassOf("LabelledImage") {
		t.Fatal("parent is not a subclass of child")
	}
}

func TestPolymorphicOverride(t *testing.T) {
	src := `classes:
  - name: Base
    functions:
      - name: process
        image: img/base-process
  - name: Derived
    parent: Base
    functions:
      - name: process
        image: img/derived-process
`
	pkg, err := ParseYAML([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	classes, err := Resolve(pkg, nil)
	if err != nil {
		t.Fatal(err)
	}
	f, ok := classes["Derived"].Function("process")
	if !ok {
		t.Fatal("process missing")
	}
	if f.Image != "img/derived-process" {
		t.Fatalf("override lost: image = %q", f.Image)
	}
	// Base untouched.
	bf, _ := classes["Base"].Function("process")
	if bf.Image != "img/base-process" {
		t.Fatalf("base mutated: %q", bf.Image)
	}
}

func TestQoSFieldwiseOverride(t *testing.T) {
	src := `classes:
  - name: Base
    qos:
      throughput: 100
      latencyMs: 50
  - name: Child
    parent: Base
    qos:
      throughput: 500
`
	pkg, _ := ParseYAML([]byte(src))
	classes, err := Resolve(pkg, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := classes["Child"].QoS
	if q.ThroughputRPS != 500 {
		t.Fatalf("throughput = %v", q.ThroughputRPS)
	}
	if q.LatencyMs != 50 {
		t.Fatalf("latency not inherited: %v", q.LatencyMs)
	}
}

func TestConstraintOverride(t *testing.T) {
	f := false
	src := &Package{Classes: []ClassDef{
		{Name: "Base", Constraint: Constraints{Jurisdiction: "eu"}},
		{Name: "Child", Parent: "Base", Constraint: Constraints{Persistent: &f}},
	}}
	if err := src.Validate(); err != nil {
		t.Fatal(err)
	}
	classes, err := Resolve(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := classes["Child"].Constraint
	if c.IsPersistent() {
		t.Fatal("persistent override lost")
	}
	if c.Jurisdiction != "eu" {
		t.Fatalf("jurisdiction not inherited: %q", c.Jurisdiction)
	}
}

func TestResolveMultiLevel(t *testing.T) {
	src := `classes:
  - name: C
    parent: B
    functions:
      - name: fc
        image: i
  - name: A
    functions:
      - name: fa
        image: i
  - name: B
    parent: A
    functions:
      - name: fb
        image: i
`
	pkg, _ := ParseYAML([]byte(src))
	classes, err := Resolve(pkg, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := classes["C"]
	if len(c.Functions) != 3 {
		t.Fatalf("C functions = %d, want 3", len(c.Functions))
	}
	if got := strings.Join(c.Ancestry, ","); got != "A,B" {
		t.Fatalf("ancestry = %s", got)
	}
}

func TestResolveCycleDetected(t *testing.T) {
	src := &Package{Classes: []ClassDef{
		{Name: "A", Parent: "B"},
		{Name: "B", Parent: "A"},
	}}
	if err := src.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := Resolve(src, nil); !errors.Is(err, ErrInheritanceCycle) {
		t.Fatalf("err = %v, want ErrInheritanceCycle", err)
	}
}

func TestResolveMissingParent(t *testing.T) {
	src := &Package{Classes: []ClassDef{{Name: "A", Parent: "Ghost"}}}
	if _, err := Resolve(src, nil); !errors.Is(err, ErrClassNotFound) {
		t.Fatalf("err = %v, want ErrClassNotFound", err)
	}
}

func TestResolveAgainstExistingClasses(t *testing.T) {
	// First deployment.
	base, _ := ParseYAML([]byte("classes:\n  - name: Base\n    functions:\n      - name: f\n        image: i\n"))
	deployed, err := Resolve(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Second package extends a class that only exists platform-side.
	ext := &Package{Classes: []ClassDef{{Name: "Ext", Parent: "Base"}}}
	classes, err := Resolve(ext, deployed)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := classes["Ext"].Function("f"); !ok {
		t.Fatal("function from previously deployed parent missing")
	}
}

func TestStructuredAndFileKeys(t *testing.T) {
	src := `classes:
  - name: A
    keySpecs:
      - name: meta
      - name: video
        kind: file
      - name: count
        kind: number
`
	pkg, _ := ParseYAML([]byte(src))
	classes, err := Resolve(pkg, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := classes["A"]
	var structured []string
	for _, k := range a.Keys {
		if k.Kind != KindFile {
			structured = append(structured, k.Name)
		}
	}
	if got := strings.Join(structured, ","); got != "count,meta" {
		t.Fatalf("structured = %s", got)
	}
	if got := strings.Join(a.FileKeys(), ","); got != "video" {
		t.Fatalf("file = %s", got)
	}
}

func TestKeyDefaultKind(t *testing.T) {
	src := "classes:\n  - name: A\n    keySpecs:\n      - name: k\n"
	pkg, err := ParseYAML([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Classes[0].KeySpecs[0].Kind != KindJSON {
		t.Fatalf("default kind = %q", pkg.Classes[0].KeySpecs[0].Kind)
	}
}

func TestIsPersistentDefaultTrue(t *testing.T) {
	var c Constraints
	if !c.IsPersistent() {
		t.Fatal("default persistence must be true")
	}
	f := false
	c.Persistent = &f
	if c.IsPersistent() {
		t.Fatal("explicit false ignored")
	}
}

func TestQoSIsZero(t *testing.T) {
	if !(QoS{}).IsZero() {
		t.Fatal("zero QoS not zero")
	}
	if (QoS{ThroughputRPS: 1}).IsZero() {
		t.Fatal("non-zero QoS reported zero")
	}
}

func TestClassAccessorsMissing(t *testing.T) {
	c := &Class{Name: "A"}
	if _, ok := c.Function("x"); ok {
		t.Fatal("missing function found")
	}
	if _, ok := c.Dataflow("x"); ok {
		t.Fatal("missing dataflow found")
	}
	if _, ok := c.Key("x"); ok {
		t.Fatal("missing key found")
	}
}

func TestDataflowDefinitionParsed(t *testing.T) {
	src := `classes:
  - name: Video
    functions:
      - name: split
        image: img/split
      - name: encode
        image: img/encode
      - name: merge
        image: img/merge
    dataflows:
      - name: transcode
        output: merge
        steps:
          - name: split
            function: split
          - name: encode
            function: encode
            after: [split]
            input: steps.split.output
          - name: merge
            function: merge
            after: [encode]
`
	pkg, err := ParseYAML([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	classes, err := Resolve(pkg, nil)
	if err != nil {
		t.Fatal(err)
	}
	df, ok := classes["Video"].Dataflow("transcode")
	if !ok {
		t.Fatal("dataflow missing")
	}
	if len(df.Steps) != 3 || df.Output != "merge" {
		t.Fatalf("dataflow = %+v", df)
	}
	if df.Steps[1].Input != "steps.split.output" {
		t.Fatalf("step input = %q", df.Steps[1].Input)
	}
}

// Property: resolution is deterministic — resolving the same package
// twice yields identical function sets.
func TestResolveDeterministicProperty(t *testing.T) {
	pkg := parseListing1(t)
	prop := func(seed uint8) bool {
		a, err1 := Resolve(pkg, nil)
		b, err2 := Resolve(pkg, nil)
		if err1 != nil || err2 != nil {
			return false
		}
		for name, ca := range a {
			cb := b[name]
			if cb == nil || len(ca.Functions) != len(cb.Functions) {
				return false
			}
			for i := range ca.Functions {
				if ca.Functions[i] != cb.Functions[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// Property: a child class always exposes a superset of its parent's
// function names.
func TestInheritanceSupersetProperty(t *testing.T) {
	pkg := parseListing1(t)
	classes, err := Resolve(pkg, nil)
	if err != nil {
		t.Fatal(err)
	}
	parent, child := classes["Image"], classes["LabelledImage"]
	for _, f := range parent.Functions {
		if _, ok := child.Function(f.Name); !ok {
			t.Fatalf("child missing inherited function %q", f.Name)
		}
	}
}

func TestTriggerParsingAndResolution(t *testing.T) {
	src := `classes:
  - name: Media
    keySpecs:
      - name: video
        kind: file
    functions:
      - name: transcode
        image: img/transcode
    triggers:
      - onUpload: video
        function: transcode
  - name: ShortClip
    parent: Media
    functions:
      - name: transcode
        image: img/fast-transcode
`
	pkg, err := ParseYAML([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	classes, err := Resolve(pkg, nil)
	if err != nil {
		t.Fatal(err)
	}
	media := classes["Media"]
	if err := media.ValidateResolved(); err != nil {
		t.Fatal(err)
	}
	tr, ok := media.Trigger("video")
	if !ok || tr.Function != "transcode" {
		t.Fatalf("trigger = %+v, %v", tr, ok)
	}
	// The subclass inherits the trigger; its polymorphic override of
	// transcode means the trigger now points at the fast image.
	clip := classes["ShortClip"]
	if err := clip.ValidateResolved(); err != nil {
		t.Fatal(err)
	}
	tr, ok = clip.Trigger("video")
	if !ok {
		t.Fatal("inherited trigger missing")
	}
	fn, _ := clip.Function(tr.Function)
	if fn.Image != "img/fast-transcode" {
		t.Fatalf("trigger resolves to %q, want the override", fn.Image)
	}
}

func TestTriggerValidation(t *testing.T) {
	bad := []string{
		"classes:\n  - name: A\n    triggers:\n      - onUpload: k\n",                                                                // no function
		"classes:\n  - name: A\n    triggers:\n      - function: f\n",                                                                // no key
		"classes:\n  - name: A\n    triggers:\n      - onUpload: k\n        function: f\n      - onUpload: k\n        function: g\n", // dup key
	}
	for i, src := range bad {
		if _, err := ParseYAML([]byte(src)); !errors.Is(err, ErrValidation) {
			t.Errorf("case %d: err = %v", i, err)
		}
	}
}

func TestValidateResolvedTriggerErrors(t *testing.T) {
	c := &Class{
		Name:      "X",
		Keys:      []KeySpec{{Name: "structured", Kind: KindJSON}, {Name: "file", Kind: KindFile}},
		Functions: []FunctionDef{{Name: "f", Image: "i"}},
	}
	c.Triggers = []TriggerDef{{OnUpload: "structured", Function: "f"}}
	if err := c.ValidateResolved(); !errors.Is(err, ErrValidation) {
		t.Fatalf("structured-key trigger err = %v", err)
	}
	c.Triggers = []TriggerDef{{OnUpload: "file", Function: "ghost"}}
	if err := c.ValidateResolved(); !errors.Is(err, ErrValidation) {
		t.Fatalf("ghost-function trigger err = %v", err)
	}
	c.Triggers = []TriggerDef{{OnUpload: "file", Function: "f"}}
	if err := c.ValidateResolved(); err != nil {
		t.Fatalf("valid trigger rejected: %v", err)
	}
}

func TestReadonlyAndConcurrencyModeParse(t *testing.T) {
	yaml := `classes:
  - name: Account
    concurrencyMode: occ
    keySpecs:
      - name: balance
        kind: number
    functions:
      - name: deposit
        image: img/deposit
      - name: balanceOf
        image: img/balance
        readonly: true
`
	pkg, err := ParseYAML([]byte(yaml))
	if err != nil {
		t.Fatal(err)
	}
	classes, err := Resolve(pkg, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := classes["Account"]
	if c.Concurrency != ConcurrencyOCC {
		t.Fatalf("concurrency = %q, want occ", c.Concurrency)
	}
	ro, _ := c.Function("balanceOf")
	if !ro.Readonly {
		t.Fatal("balanceOf not marked readonly")
	}
	rw, _ := c.Function("deposit")
	if rw.Readonly {
		t.Fatal("deposit wrongly marked readonly")
	}
}

func TestConcurrencyModeValidation(t *testing.T) {
	yaml := `classes:
  - name: Bad
    concurrencyMode: optimistic-ish
    functions:
      - name: f
        image: img/f
`
	if _, err := ParseYAML([]byte(yaml)); !errors.Is(err, ErrValidation) {
		t.Fatalf("err = %v, want ErrValidation for unknown concurrency mode", err)
	}
}

func TestConcurrencyModeInheritance(t *testing.T) {
	yaml := `classes:
  - name: Base
    concurrencyMode: locked
    functions:
      - name: f
        image: img/f
  - name: Child
    parent: Base
  - name: Override
    parent: Base
    concurrencyMode: adaptive
`
	pkg, err := ParseYAML([]byte(yaml))
	if err != nil {
		t.Fatal(err)
	}
	classes, err := Resolve(pkg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := classes["Child"].Concurrency; got != ConcurrencyLocked {
		t.Fatalf("Child concurrency = %q, want inherited locked", got)
	}
	if got := classes["Override"].Concurrency; got != ConcurrencyAdaptive {
		t.Fatalf("Override concurrency = %q, want adaptive", got)
	}
}
