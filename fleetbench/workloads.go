package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"repro/internal/api"
	"repro/internal/load"
	"repro/internal/progstore"
	"repro/internal/pybench"
)

// expect is a reply's exact expected outcome.
type expect struct{ class, stdout string }

// request is one generated /v1/run request.
type request struct {
	id     string // X-Request-Id; also the job name, so Submit spans join
	body   []byte
	want   expect
	replay bool   // resends an earlier request's body and idempotency key
	attr   string // "program/mode" for breakdown requests, else ""
}

// generator yields a workload's deterministic request sequence: request
// i is the same whichever client sends it. Once wrap is set, next
// returns nil at the end of the current pass, so a closed loop measures
// whole passes (an open loop ignores it).
type generator interface{ next(wrap bool) *request }

// workload is one traffic mix against a fleet.
type workload struct {
	// warm registers what the workload needs and runs its warm-up pass
	// on a fresh fleet; it is part of the timed set-up.
	warm func(b *bench) error
	// gen returns the sequence for one timed phase; prefix keeps request
	// ids unique across the phases of one fleet.
	gen func(prefix string) generator
	// rate is the open-loop offered rate (req/s); 0 means a closed loop.
	rate float64
}

// servingLimits are the budgets mix-warm and tiny-fresh requests carry:
// pyload's reference budgets, without the wall-clock deadline, which
// stays the server's default so the verdict never depends on load.
var servingLimits = api.Limits{
	MaxSteps:       2_000_000,
	MaxHeapBytes:   64 << 20,
	MaxOutputBytes: 1 << 20,
}

func marshalRun(rr api.RunRequestV1) []byte {
	body, err := json.Marshal(rr)
	if err != nil {
		panic(err) // RunRequestV1 always marshals
	}
	return body
}

// newRNG derives a generator stream from the run seed, so every phase
// and draw is reproducible from --seed alone.
func newRNG(seed uint64, stream string) *rand.Rand {
	h := uint64(14695981039346656037)
	for i := 0; i < len(stream); i++ {
		h = (h ^ uint64(stream[i])) * 1099511628211
	}
	return rand.New(rand.NewPCG(seed, h))
}

// permGen walks a fixed program list in a fresh seeded permutation each
// pass, so every program is sent equally often whatever the run length.
type permGen struct {
	mu     sync.Mutex
	rng    *rand.Rand
	n      int
	perm   []int
	pos    int
	count  int
	prefix string
	build  func(id string, i int, rng *rand.Rand) *request
}

func (g *permGen) next(wrap bool) *request {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.pos == len(g.perm) {
		if wrap && g.perm != nil {
			return nil
		}
		g.perm, g.pos = g.rng.Perm(g.n), 0
	}
	i := g.perm[g.pos]
	g.pos++
	g.count++
	return g.build(g.prefix+strconv.Itoa(g.count), i, g.rng)
}

// mixCorpusSeed fixes the difftest programs of mix-warm's corpus, so
// every seed runs the same work mix and only the order varies with it.
const (
	mixCorpusSize = 64
	mixCorpusSeed = 1
)

// newMixWarm builds mix-warm: load.MixedCorpus (the hand-written kernels
// that fit the budget, then stamped difftest programs) repeated, half
// the requests inline and half by programRef.
func newMixWarm(seed uint64) (*workload, error) {
	corpus := load.MixedCorpus(mixCorpusSize, mixCorpusSeed, servingLimits)
	if len(corpus) == 0 {
		return nil, fmt.Errorf("mix-warm: empty corpus")
	}
	wants := make([]expect, len(corpus))
	for i, p := range corpus {
		// MixedCorpus keeps only programs whose reference run ended ok
		// or with a Python error; its "python_error" label is exactly
		// the "error" class, whose stdout is empty.
		switch p.WantClass {
		case "ok":
			wants[i] = expect{"ok", p.WantStdout}
		case "python_error":
			wants[i] = expect{"error", ""}
		default:
			return nil, fmt.Errorf("mix-warm: %s: unexpected reference class %q", p.Name, p.WantClass)
		}
	}
	build := func(id string, i int, byRef bool) *request {
		rr := api.RunRequestV1{Name: id + ".py", Limits: &servingLimits}
		if byRef {
			rr.ProgramRef = progstore.Ref(corpus[i].Src)
		} else {
			rr.Src = corpus[i].Src
		}
		return &request{id: id, body: marshalRun(rr), want: wants[i]}
	}
	return &workload{
		warm: func(b *bench) error {
			for _, p := range corpus {
				if err := b.register(p.Name, p.Src); err != nil {
					return err
				}
			}
			reqs := make([]*request, len(corpus))
			for i := range corpus {
				reqs[i] = build("w"+strconv.Itoa(i), i, i%2 == 1)
			}
			return b.runAll(reqs)
		},
		gen: func(prefix string) generator {
			return &permGen{
				rng: newRNG(seed, "mix-warm/"+prefix), n: len(corpus), prefix: prefix,
				build: func(id string, i int, rng *rand.Rand) *request {
					return build(id, i, rng.IntN(2) == 1)
				},
			}
		},
	}, nil
}

// tiny-fresh shape: every source is unique, and every tinyReplayEvery-th
// request resends (same body, same idempotency key) one of the
// tinyReplayWindow originals sent before the last tinyReplayGap, far
// enough back that the original has reached its replica first. The
// warm-up pass sends enough unique programs to fill both replicas'
// program stores (1024 each) past their cap, so the timed phase runs in
// LRU-eviction steady state.
const (
	tinyLoopIters    = 24
	tinyReplayEvery  = 8
	tinyReplayGap    = 16
	tinyReplayWindow = 48
	tinyWarmRequests = 2800
	tinyRate         = 200.0
)

// tinySrc is a program of a few hundred bytecodes; the tag makes its
// source unique, and the generator computes its output itself.
const tinySrc = `tag = "%s"
a = %d
s = 0
for i in xrange(%d):
    s = s + (a * i + 7) %% 13
print(tag)
print(s)
`

type tinyGen struct {
	mu     sync.Mutex
	rng    *rand.Rand
	seed   uint64
	prefix string
	count  int
	origs  int                                        // originals generated
	recent [tinyReplayGap + tinyReplayWindow]*request // the latest originals, by origs mod size
}

func (g *tinyGen) next(bool) *request {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.count++
	id := g.prefix + strconv.Itoa(g.count)
	if n := len(g.recent); g.count%tinyReplayEvery == 0 && g.origs >= n {
		back := tinyReplayGap + 1 + g.rng.IntN(tinyReplayWindow)
		orig := g.recent[(g.origs-back)%n]
		return &request{id: id, body: orig.body, want: orig.want, replay: true}
	}
	a := 2 + g.rng.IntN(95)
	tag := fmt.Sprintf("%d-%s", g.seed, id)
	s := 0
	for i := 0; i < tinyLoopIters; i++ {
		s += (a*i + 7) % 13
	}
	body := marshalRun(api.RunRequestV1{
		Name:           id + ".py",
		Src:            fmt.Sprintf(tinySrc, tag, a, tinyLoopIters),
		Limits:         &servingLimits,
		IdempotencyKey: "k" + tag,
	})
	r := &request{id: id, body: body, want: expect{"ok", tag + "\n" + strconv.Itoa(s) + "\n"}}
	g.recent[g.origs%len(g.recent)] = r
	g.origs++
	return r
}

func newTinyFresh(seed uint64) *workload {
	gen := func(prefix string) generator {
		return &tinyGen{rng: newRNG(seed, "tiny-fresh/"+prefix), seed: seed, prefix: prefix}
	}
	return &workload{
		warm: func(b *bench) error {
			g := gen("w")
			reqs := make([]*request, tinyWarmRequests)
			for i := range reqs {
				reqs[i] = g.next(false)
			}
			return b.runAll(reqs)
		},
		gen:  gen,
		rate: tinyRate,
	}
}

// attrSubset is the attribution workload's programs. The rule: the
// pybench programs whose attributed runs are short enough (about 10-80
// ms in either mode on the reference box) that a run completes about a
// thousand requests, spanning the C-library family (regex, json,
// pickle), the object family (sym_str's expression objects) and the
// numeric family (nqueens, the shortest numeric program).
var attrSubset = []string{
	"regex_compile", "regex_v8", "regex_effbot", "json_dumps", "pickle",
	"sym_str", "nqueens",
}

var attrModes = []string{"cpython", "pypy-jit"}

// checksumsFile is the pybench golden-output file, relative to the
// repository root: an independent reference for every program's stdout.
const checksumsFile = "internal/pybench/testdata/checksums.txt"

func readChecksums(root string) (map[string]string, error) {
	data, err := os.ReadFile(filepath.Join(root, checksumsFile))
	if err != nil {
		return nil, err
	}
	out := make(map[string]string)
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" {
			continue
		}
		name, sum, ok := strings.Cut(line, "\t")
		if !ok {
			return nil, fmt.Errorf("%s: malformed line %q", checksumsFile, line)
		}
		out[name] = strings.ReplaceAll(sum, "\\n", "\n")
	}
	return out, nil
}

// newAttribution builds attribution: every request asks for the overhead
// breakdown, each subset program in both modes, inline.
func newAttribution(seed uint64, root string) (*workload, error) {
	golden, err := readChecksums(root)
	if err != nil {
		return nil, err
	}
	type combo struct {
		name, src, mode string
		want            expect
	}
	var combos []combo
	for _, name := range attrSubset {
		pb, err := pybench.ByName(name)
		if err != nil {
			return nil, err
		}
		sum, ok := golden[name]
		if !ok {
			return nil, fmt.Errorf("%s: no checksum for %s", checksumsFile, name)
		}
		for _, m := range attrModes {
			combos = append(combos, combo{name, pb.Source, m, expect{"ok", sum}})
		}
	}
	build := func(id string, i int) *request {
		c := combos[i]
		body := marshalRun(api.RunRequestV1{Name: id + ".py", Src: c.src, Mode: c.mode, Breakdown: true})
		return &request{id: id, body: body, want: c.want, attr: c.name + "/" + c.mode}
	}
	pass := func(prefix string) []*request {
		reqs := make([]*request, len(combos))
		for i := range combos {
			reqs[i] = build(prefix+strconv.Itoa(i), i)
		}
		return reqs
	}
	return &workload{
		// Two warm-up passes: the first run of each (program, mode) is
		// cold; the second records the breakdown counts every later run
		// must repeat exactly.
		warm: func(b *bench) error {
			if err := b.runAll(pass("w")); err != nil {
				return err
			}
			b.attrLearn = true
			defer func() { b.attrLearn = false }()
			return b.runAll(pass("v"))
		},
		gen: func(prefix string) generator {
			return &permGen{
				rng: newRNG(seed, "attribution/"+prefix), n: len(combos), prefix: prefix,
				build: func(id string, i int, _ *rand.Rand) *request { return build(id, i) },
			}
		},
	}, nil
}

// register posts a program to the router's /v1/programs, which
// registers it on every replica.
func (b *bench) register(name, src string) error {
	body, err := json.Marshal(api.RegisterRequestV1{Name: name, Src: src})
	if err != nil {
		return err
	}
	resp, err := b.client.Post(b.f.url+"/v1/programs", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("register %s: %w", name, err)
	}
	defer resp.Body.Close()
	rb, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20)) // for the error message only
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("register %s: status %d: %s", name, resp.StatusCode, rb)
	}
	return nil
}

// listGen yields a fixed request list once.
type listGen struct {
	mu   sync.Mutex
	reqs []*request
}

func (g *listGen) next(bool) *request {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.reqs) == 0 {
		return nil
	}
	r := g.reqs[0]
	g.reqs = g.reqs[1:]
	return r
}

// runAll sends reqs as a closed loop and fails if any request failed;
// wrong answers are counted by exchange.
func (b *bench) runAll(reqs []*request) error {
	if p := b.closedLoop(&listGen{reqs: reqs}, 0); p.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d requests failed", p.failed, len(reqs))
	}
	return nil
}
