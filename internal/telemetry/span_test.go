package telemetry

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"doppiodb/internal/sim"
)

// TestSpanNesting builds a parent/child tree and checks structure, Find and
// Path.
func TestSpanNesting(t *testing.T) {
	root := NewSpan("query")
	hw := root.NewChild("hardware")
	hw.NewChild("qpi-transfer")
	hw.NewChild("pu-match")
	root.NewChild("cpu-post-process")

	want := []string{"query", "hardware", "qpi-transfer", "pu-match", "cpu-post-process"}
	if got := root.Path(); !reflect.DeepEqual(got, want) {
		t.Errorf("Path = %v, want %v", got, want)
	}
	if root.Find("pu-match") == nil {
		t.Error("Find missed a grandchild")
	}
	if root.Find("nope") != nil {
		t.Error("Find invented a span")
	}
	if n := len(root.Children()); n != 2 {
		t.Errorf("root has %d children, want 2", n)
	}
}

func TestSpanClocks(t *testing.T) {
	s := StartSpan("work")
	time.Sleep(time.Millisecond)
	s.End()
	if s.Wall() <= 0 {
		t.Error("wall clock did not advance")
	}
	w := s.Wall()
	s.End() // second End is a no-op
	if s.Wall() != w {
		t.Error("second End changed the wall duration")
	}
	s.AddSim(3 * sim.Microsecond)
	s.AddSim(2 * sim.Microsecond)
	if s.Sim() != 5*sim.Microsecond {
		t.Errorf("sim = %v, want 5µs", s.Sim())
	}
	s.SetAttr("rows", 42)
	if v, ok := s.Attrs()["rows"]; !ok || v != 42 {
		t.Errorf("attr = %d,%t", v, ok)
	}
}

// TestSpanConcurrentChildren exercises concurrent StartChild/SetAttr (the
// partitioned submit path creates per-engine spans from worker goroutines).
func TestSpanConcurrentChildren(t *testing.T) {
	root := NewSpan("submit")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := root.StartChild("job")
			c.SetAttr("engine", int64(i))
			c.End()
		}(i)
	}
	wg.Wait()
	if n := len(root.Children()); n != 8 {
		t.Errorf("%d children, want 8", n)
	}
}

func TestWriteTree(t *testing.T) {
	root := NewSpan("query")
	root.AddSim(10 * sim.Microsecond)
	hw := root.NewChild("hardware")
	hw.AddSim(8 * sim.Microsecond)
	q := hw.NewChild("qpi-transfer")
	q.SetAttr("bytes", 4096)
	hw.NewChild("pu-match")
	root.NewChild("collect")

	var buf bytes.Buffer
	root.WriteTree(&buf)
	got := buf.String()
	want := strings.Join([]string{
		"query sim=10.000µs (10000ns)",
		"├─ hardware sim=8.000µs (8000ns)",
		"│  ├─ qpi-transfer [bytes=4096]",
		"│  └─ pu-match",
		"└─ collect",
	}, "\n") + "\n"
	if got != want {
		t.Errorf("tree:\n%s\nwant:\n%s", got, want)
	}
}

func TestSpanJSON(t *testing.T) {
	root := NewSpan("query")
	root.AddSim(2 * sim.Microsecond)
	root.SetAttr("rows", 7)
	root.NewChild("parse")

	data, err := json.Marshal(root)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back struct {
		Name     string           `json:"name"`
		SimNS    int64            `json:"sim_ns"`
		Attrs    map[string]int64 `json:"attrs"`
		Children []struct {
			Name string `json:"name"`
		} `json:"children"`
	}
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Name != "query" || back.SimNS != 2000 || back.Attrs["rows"] != 7 {
		t.Errorf("span JSON mangled: %s", data)
	}
	if len(back.Children) != 1 || back.Children[0].Name != "parse" {
		t.Errorf("children mangled: %s", data)
	}
}
