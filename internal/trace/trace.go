// Package trace defines the branch-event plumbing between the interpreter
// and the analyses, and BLTRACE1, the compact trace format mirroring the
// paper's profiling tool (which wrote branch number + direction to a file,
// about 10 MB for 50 million branches in compressed form; our varint+RLE
// encoding is in the same ballpark). The format has one codec, the Slab:
// it records events in the wire encoding, writes them with WriteTo, and
// ReadSlab validates a stream and adopts its bytes as a slab. The
// BLSLAB01 container (AppendSealed/OpenSealed) adds the replay
// checkpoints for the service's disk tier and peers.
package trace

// Collector consumes conditional-branch events keyed on the dense site
// number, the only identity a trace records. RecordRun delivers a maximal
// RLE run of n identical outcomes as one call, and the contract is strict:
// RecordRun(s, t, n) must leave the collector in a state bit-identical to
// n consecutive RecordBranch(s, t) calls, so replaying through runs is a
// pure speedup, never an approximation (pinned by
// FuzzRunCollectorEquivalence). Live interpreter hooks reach a Collector
// through interp.BranchHook.
type Collector interface {
	RecordBranch(site int32, taken bool)
	RecordRun(site int32, taken bool, n uint64)
}

// Event is one recorded branch outcome. Switch marks an N-way dispatch
// event, whose selected successor index is Outcome (Taken is meaningless
// then); otherwise the event is a conditional branch and Outcome is 0.
type Event struct {
	Site    int32
	Taken   bool
	Switch  bool
	Outcome int32
}

// Log records events in memory, up to an optional cap.
type Log struct {
	Events []Event
	// Max bounds the number of recorded events (0 = unlimited); events
	// beyond the cap are dropped but still counted in Seen.
	Max  int
	Seen uint64
}

var (
	_ Collector       = (*Log)(nil)
	_ SwitchCollector = (*Log)(nil)
)

// Counts accumulates per-site taken/not-taken totals, the "profile"
// strategy's entire data requirement.
type Counts struct {
	Taken    []uint64
	NotTaken []uint64
}

var _ Sharded = (*Counts)(nil)

// NewCounts sizes the tables for nSites branch sites.
func NewCounts(nSites int) *Counts {
	return &Counts{Taken: make([]uint64, nSites), NotTaken: make([]uint64, nSites)}
}

// Total returns the number of events recorded for site s.
func (c *Counts) Total(s int32) uint64 { return c.Taken[s] + c.NotTaken[s] }

// TotalAll sums events across all sites.
func (c *Counts) TotalAll() uint64 {
	var n uint64
	for i := range c.Taken {
		n += c.Taken[i] + c.NotTaken[i]
	}
	return n
}

// Executed counts the sites that were executed at least once.
func (c *Counts) Executed() int {
	n := 0
	for i := range c.Taken {
		if c.Taken[i]+c.NotTaken[i] > 0 {
			n++
		}
	}
	return n
}

// magic heads a BLTRACE1 stream, the on-disk and upload trace format:
//
//	header:  "BLTRACE1"
//	events:  uvarint( (site+1)<<1 | taken )   — +1 keeps 0 as terminator
//	footer:  uvarint(0) then uvarint(total event count)
//
// Consecutive repeats of the same (site, taken) pair are run-length
// encoded as uvarint(1) uvarint(repeat count): the value 1 cannot occur as
// an event code because site+1 >= 1 shifted left is >= 2.
//
// Switch (N-way dispatch) events use the run marker's one unused slot — a
// zero-length run — as an escape:
//
//	switch:  uvarint(1) uvarint(0) uvarint(site+1) uvarint(outcome)
//
// The escape is self-contained, and a run marker after it repeats the
// switch event exactly as it would a branch event. Streams containing
// only conditional branches never contain an escape.
//
// The event bytes between header and footer are exactly a Slab's buffer:
// Slab.Record is the only encoder, Slab.WriteTo the only writer, and
// ReadSlab validates an incoming stream in one pass and adopts its bytes.
const magic = "BLTRACE1"

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// swKey is the synthetic RLE key for a switch event. Bit 63 keeps it
// disjoint from every branch event code, whose site field caps the code
// below 2^33.
func swKey(site, outcome int32) uint64 {
	return 1<<63 | uint64(uint32(site))<<32 | uint64(uint32(outcome))
}
