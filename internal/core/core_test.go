package core

import (
	"strings"
	"testing"

	"repro/internal/statemachine"
)

const alternating = `
var total int;

func main() int {
    for var i int = 0; i < 20000; i = i + 1 {
        if i % 2 == 0 { total = total + 3; } else { total = total - 1; }
    }
    print(total);
    return total;
}`

func TestPipelineEndToEnd(t *testing.T) {
	res, err := RunBL(alternating, Config{MaxStates: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Baseline.Rate() < 20 {
		t.Fatalf("baseline %.2f%%, expected ~25%%", res.Baseline.Rate())
	}
	if res.Replica.Rate() > 0.5 {
		t.Fatalf("replicated %.2f%%, expected ~0%%", res.Replica.Rate())
	}
	if res.Baseline.Checksum != res.Replica.Checksum {
		t.Fatal("checksum changed")
	}
	if res.SizeFactor() <= 1 || res.SizeFactor() > 3 {
		t.Fatalf("size factor %.2f out of expected band", res.SizeFactor())
	}
	if res.Profile == nil || res.Profile.Counts.TotalAll() == 0 {
		t.Fatal("profile missing")
	}
	var machines int
	for i := range res.Choices {
		if res.Choices[i].Kind != statemachine.KindProfile {
			machines++
		}
	}
	if machines == 0 {
		t.Fatal("no machines selected")
	}
	if res.Original == res.Replicated {
		t.Fatal("replicated program aliases original")
	}
}

func TestPipelineDefaults(t *testing.T) {
	var cfg Config
	cfg.setDefaults()
	if cfg.MaxStates != 5 || cfg.MaxPathLen != 1 || cfg.MaxSizeFactor != 3 {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
}

func TestPipelineBudgetAndGlobals(t *testing.T) {
	src := `
var wseed int = 1;

func main() int {
    var s int = 0;
    for var i int = 0; i < 1000000; i = i + 1 {
        if (i + wseed) % 3 == 0 { s = s + 1; }
    }
    print(s);
    return s;
}`
	res, err := RunBL(src, Config{
		Budget: 50_000,
		Seed:   7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Profile.Counts.TotalAll() != 50_000 {
		t.Fatalf("budget not honoured: %d", res.Profile.Counts.TotalAll())
	}
}

func TestPipelineErrors(t *testing.T) {
	if _, err := RunBL("func main() int { return y; }", Config{}); err == nil {
		t.Fatal("want compile error")
	}
	if _, err := RunBL("func main() int { return 1/0; }", Config{}); err == nil {
		t.Fatal("want runtime error")
	}
	_, err := RunBL(alternating, Config{Scale: 2})
	if err == nil || !strings.Contains(err.Error(), "wscale") {
		t.Fatalf("want unknown-global error, got %v", err)
	}
}

func TestCompileBL(t *testing.T) {
	prog, err := CompileBL(alternating)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Func("main") == nil {
		t.Fatal("no main")
	}
}
