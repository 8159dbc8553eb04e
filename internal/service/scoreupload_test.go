package service

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/predict"
	"repro/internal/trace"
)

// uploadSeeds are FuzzReadSlab's seeds — its f.Add inputs, rebuilt here
// through the public codec, and its checked-in corpus.
func uploadSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	encode := func(record func(s *trace.Slab)) []byte {
		s := trace.NewSlab(0)
		record(s)
		s.Seal()
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			tb.Fatal(err)
		}
		return buf.Bytes()
	}
	uv := binary.AppendUvarint
	bomb := uv(uv(uv([]byte("BLTRACE1"), 4), 1), 1<<40)
	long := []byte("BLTRACE1")
	var n uint64
	for i := 0; i < 12; i++ {
		long = uv(uv(uv(long, uint64(i%5+1)<<1|uint64(i%2)), 1), 4000)
		n += 4001
	}
	long = uv(uv(long, 0), n)
	seeds := [][]byte{
		encode(func(s *trace.Slab) { s.Record(0, true); s.Record(0, true); s.Record(1, false) }),
		encode(func(*trace.Slab) {}),
		[]byte("BLTRACE1"),
		[]byte("NOTATRACE"),
		bomb,
		encode(func(s *trace.Slab) { s.Record(1<<28, true) }),  // site bomb
		[]byte("BLTRACE1\x03\x03\x03\x00\x03"),                 // repeat without a run marker
		[]byte("BLTRACE1\x03\x01\x02\x01\x05\x00\x08"),         // two run markers back to back
		[]byte("BLTRACE1\x01\x00\x03\x02\x01\x04\x04\x00\x06"), // a run repeating a switch
		encode(func(s *trace.Slab) { // mixed branch and switch events with runs
			rng := rand.New(rand.NewSource(6))
			for i := 0; i < 200; {
				sw, site, bit := rng.Intn(3) == 0, int32(rng.Intn(5)), rng.Intn(4)
				reps := 1
				if rng.Intn(4) == 0 {
					reps += rng.Intn(20)
				}
				for ; reps > 0 && i < 200; reps, i = reps-1, i+1 {
					if sw {
						s.RecordSwitch(site, int32(bit))
					} else {
						s.Record(site, bit&1 == 1)
					}
				}
			}
		}),
		long,
	}
	dir := filepath.Join("..", "trace", "testdata", "fuzz", "FuzzReadSlab")
	files, _ := os.ReadDir(dir)
	for _, fe := range files {
		raw, err := os.ReadFile(filepath.Join(dir, fe.Name()))
		if err != nil {
			tb.Fatal(err)
		}
		// "go test fuzz v1", then one []byte("...") line.
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		arg := strings.TrimSuffix(strings.TrimPrefix(lines[len(lines)-1], "[]byte("), ")")
		b, err := strconv.Unquote(arg)
		if err != nil {
			tb.Fatalf("%s: %v", fe.Name(), err)
		}
		seeds = append(seeds, []byte(b))
	}
	return seeds
}

// referenceScore answers a /v1/score upload the way the service did before
// scoring moved into the decoding pass: ReadSlab, a trace.MaxSite replay
// for the site bound, then the strategy's own collector over fresh tables.
// It returns the status code and, on 200, the answer.
func referenceScore(data []byte, lim trace.Limits, strategy string, reqPreds []string) (int, *ScoreResponse) {
	slab, err := trace.ReadSlab(bytes.NewReader(data), lim)
	if errors.Is(err, trace.ErrTooLarge) {
		return http.StatusRequestEntityTooLarge, nil
	}
	if err != nil {
		return http.StatusBadRequest, nil
	}
	var max trace.MaxSite
	slab.ReplayInto(&max)
	n := max.N
	var misses, total uint64
	switch strategy {
	case "profile":
		counts := trace.NewCounts(n)
		slab.ReplayInto(counts)
		r := predict.ProfileResult(counts)
		misses, total = r.Misses, r.Total
	case "last", "twobit":
		p := predict.Predictor(predict.NewLastDirection(n))
		if strategy == "twobit" {
			p = predict.NewTwoBit(n)
		}
		eval := predict.Eval{P: p}
		slab.ReplayInto(&eval)
		misses, total = eval.Misses, eval.Total
	case "static":
		if len(reqPreds) > n {
			return http.StatusBadRequest, nil
		}
		preds := make([]ir.Prediction, n)
		for i, p := range reqPreds {
			switch p {
			case "taken":
				preds[i] = ir.PredTaken
			case "not_taken":
				preds[i] = ir.PredNotTaken
			case "none", "":
			default:
				return http.StatusBadRequest, nil
			}
		}
		fold := predict.StaticScore{Preds: preds}
		slab.ReplayInto(&fold)
		misses, total = fold.Mispredicted, fold.Predicted
	default:
		return http.StatusBadRequest, nil
	}
	return http.StatusOK, &ScoreResponse{SchemaV: Schema, Kind: "score", Strategy: strategy, Source: "upload",
		NumSites: n, Events: slab.Len(), Score: rateBlock(misses, total)}
}

// FuzzScoreUpload holds /v1/score on uploads, which decodes and scores in
// one pass, to the reference path (ReadSlab, MaxSite, then the strategy's
// collector): for any bytes, every strategy and an unknown one, and a
// fuzzed preds vector, the handler refuses or accepts alike with the same
// status code, and an accepted upload answers the same num_sites, events
// and score. The stored-slab path (scoreSlab) must agree too.
func FuzzScoreUpload(f *testing.F) {
	for i, seed := range uploadSeeds(f) {
		f.Add(seed, uint32(i*0x9e3779b9))
	}
	lim := trace.Limits{MaxEvents: 1 << 17, MaxSites: 1 << 12, MaxBytes: 1 << 16}
	srv := mustNew(f, Config{TraceLimits: lim})
	h := srv.Handler()
	strategies := []string{"profile", "last", "twobit", "static", "nope"}
	f.Fuzz(func(t *testing.T, data []byte, predBits uint32) {
		if len(data) == 0 {
			return // an empty trace_b64 means "no upload"
		}
		// Up to seven preds entries, two bits each, one value in four
		// unknown; enough to be longer than small traces' site counts.
		var preds []string
		for k := 0; k < int(predBits&7); k++ {
			preds = append(preds, [4]string{"taken", "not_taken", "", "sideways"}[predBits>>(3+2*k)&3])
		}
		for _, strategy := range strategies {
			body, err := json.Marshal(Request{TraceB64: base64.StdEncoding.EncodeToString(data), Strategy: strategy, Preds: preds})
			if err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/score", bytes.NewReader(body)))
			wantCode, want := referenceScore(data, lim, strategy, preds)
			if rec.Code != wantCode {
				t.Fatalf("%s, preds %q: status %d (%s), reference %d", strategy, preds, rec.Code, rec.Body, wantCode)
			}
			if wantCode != http.StatusOK {
				continue
			}
			var got ScoreResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
				t.Fatalf("%s: answer does not decode: %v", strategy, err)
			}
			if !reflect.DeepEqual(&got, want) {
				t.Fatalf("%s, preds %q: answer %+v, reference %+v", strategy, preds, got, *want)
			}
			slab, err := trace.ReadSlab(bytes.NewReader(data), lim)
			if err != nil {
				t.Fatal(err)
			}
			nsites, score, err := srv.scoreSlab(slab, strategy, preds)
			if err != nil || nsites != want.NumSites || score != want.Score {
				t.Fatalf("%s: stored-slab path answers %d sites, %+v (%v); reference %d, %+v",
					strategy, nsites, score, err, want.NumSites, want.Score)
			}
		}
	})
}
