package loadgen

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/results"
	"repro/internal/service"
)

// TestLatencySummary pins the percentile picks: the sample at index
// q·(n−1), rounded down, of each endpoint's sorted durations, in
// milliseconds, endpoints sorted by name and empty ones left out.
func TestLatencySummary(t *testing.T) {
	var profile []time.Duration
	for ms := 1; ms <= 100; ms++ {
		profile = append(profile, time.Duration(ms)*time.Millisecond)
	}
	rand.New(rand.NewSource(1)).Shuffle(len(profile), func(i, j int) {
		profile[i], profile[j] = profile[j], profile[i]
	})
	got := latencySummary(map[string][]time.Duration{
		"score":    {7 * time.Millisecond},
		"profile":  profile,
		"machines": nil,
		"batch":    {3 * time.Millisecond, 1 * time.Millisecond, 2 * time.Millisecond, 500 * time.Microsecond},
	})
	want := []results.EndpointLatency{
		{Endpoint: "batch", P50Millis: 1, P99Millis: 2},
		{Endpoint: "profile", P50Millis: 50, P99Millis: 99},
		{Endpoint: "score", P50Millis: 7, P99Millis: 7},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("latencySummary = %+v\nwant %+v", got, want)
	}
	if got := latencySummary(nil); got != nil {
		t.Fatalf("no samples: %+v", got)
	}
}

// TestCountEvents: a single response's "events" field, or the sum over a
// batch's items; a failed batch item or malformed JSON is an error.
func TestCountEvents(t *testing.T) {
	cases := []struct {
		name    string
		body    string
		batch   bool
		want    uint64
		wantErr bool
	}{
		{"single", `{"workload":"cc","events":42,"sites":[1,2]}`, false, 42, false},
		{"single without events", `{"workload":"cc"}`, false, 0, false},
		{"batch", `{"ok":2,"failed":0,"items":[{"status":200,"body":{"events":3}},{"status":200,"body":{"events":4,"x":[]}}]}`, true, 7, false},
		{"empty batch", `{"ok":0,"failed":0,"items":[]}`, true, 0, false},
		{"failed batch item", `{"ok":1,"failed":1,"items":[{"status":200,"body":{"events":3}},{"status":400,"error":"bad"}]}`, true, 0, true},
		{"malformed single", `{"events":`, false, 0, true},
		{"malformed batch", `{"items":[{`, true, 0, true},
		{"malformed batch item body", `{"ok":1,"failed":0,"items":[{"status":200,"body":"x"}]}`, true, 0, true},
		{"events of the wrong type", `{"events":"many"}`, false, 0, true},
	}
	for _, c := range cases {
		got, err := countEvents([]byte(c.body), c.batch)
		if (err != nil) != c.wantErr {
			t.Errorf("%s: err = %v, want error %v", c.name, err, c.wantErr)
			continue
		}
		if err == nil && got != c.want {
			t.Errorf("%s: %d events, want %d", c.name, got, c.want)
		}
	}
}

// TestBalancedMix: every base request appears once per node, routed to
// that node by the ring, interleaved node-minor, so each owner gets an
// equal share of the mix.
func TestBalancedMix(t *testing.T) {
	nodes := []string{"http://n0:1", "http://n1:1", "http://n2:1"}
	ring := cluster.NewRing(nodes, 0)
	opts := &ThroughputOptions{Workloads: []string{"cc", "compress"}, Budget: 5000}
	mix, err := balancedMix(opts, ring, nodes)
	if err != nil {
		t.Fatal(err)
	}
	base := baseRequests(opts)
	if len(mix) != len(base)*len(nodes) {
		t.Fatalf("%d calls, want %d", len(mix), len(base)*len(nodes))
	}
	share := map[string]int{}
	for i, call := range mix {
		node := nodes[i%len(nodes)]
		if owner, _ := ring.Owner(call.route); owner != node {
			t.Fatalf("call %d routes to %s, want %s", i, owner, node)
		}
		var req service.Request
		if err := json.Unmarshal(call.body, &req); err != nil {
			t.Fatal(err)
		}
		if key := service.RouteKey(&req, opts.Budget); key != call.route {
			t.Fatalf("call %d: body routes to %q, precomputed %q", i, key, call.route)
		}
		b := base[i/len(nodes)]
		if call.endpoint != b.endpoint || req.Workload != b.req.Workload || req.Seed == 0 {
			t.Fatalf("call %d is %s %s seed %d, want %s %s with a seed", i, call.endpoint, req.Workload, req.Seed, b.endpoint, b.req.Workload)
		}
		share[node]++
	}
	for _, node := range nodes {
		if share[node] != len(base) {
			t.Fatalf("owner shares %v, want %d each", share, len(base))
		}
	}
}
