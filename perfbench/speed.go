package main

import (
	"encoding/json"
	"fmt"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark shares its host with other tenants, and the host's
// speed for this kind of code (allocation-heavy JSON, GC, pointer-rich
// heaps) drifts by up to a factor of two within minutes and by ±20%
// within seconds; a fixed CPU-bound op read 90 ms in one run and 130 ms
// a few minutes later. The drift is in the memory system (a shared L3
// and DRAM), not in steal time, so no run length averages it away.
//
// A speed probe measures it. While the program is quiet (before and
// after each set-up, and every probeEvery in a timed window, with the
// clients held between ops) the probe runs a fixed kernel on every CPU
// at once: a dependent walk through a 16 MiB random cycle, which reads
// from DRAM when other tenants crowd the L3, a sequential read of the
// same 16 MiB, and a JSON decode into a reused slice. The kernel uses
// only the standard library and allocates nothing, so neither the
// repository's code nor its heap changes what it measures. Each time is
// then scaled by probeRefMS over the probe time around it: times are
// reported in milliseconds of a host on which the kernel takes
// probeRefMS. The unscaled values go to the run stamp.
const (
	// probeRefMS is the reference speed scaled times are quoted at. On
	// the 2-vCPU Xeon (Sapphire Rapids) VM the benchmark was tuned on,
	// the kernel's median in a run was 12 to 19 ms, and single samples
	// ranged from 9 to 60 ms, as the host's other tenants came and went.
	probeRefMS   = 10.0
	probeEvery   = 500 * time.Millisecond
	probeRing    = 4 << 20 // int32 entries: 16 MiB
	probeSteps   = 20_000  // dependent loads per kernel
	probeRecs    = 2000    // records in the decoded JSON document
	probeDecodes = 2
)

type probeRec struct {
	Time float64 `json:"time"`
	Work float64 `json:"work"`
	Unit int     `json:"unit"`
}

// speedProbe holds the kernel's inputs, built once per process.
type speedProbe struct {
	ring  []int32
	doc   []byte
	procs int
	outs  [][]probeRec // per goroutine, reused by every decode
	sink  []int32
	parts [probeParts][]float64 // each sample's chase, stream and decode times
}

// probeParts is the kernel's parts: the dependent walk through the ring,
// a sequential read of it, and the JSON decode.
const probeParts = 3

// newSpeedProbe builds the kernel's inputs. The ring lives outside the
// Go heap, so that it does not change when the program's collector runs.
func newSpeedProbe(procs int) (*speedProbe, error) {
	mem, err := syscall.Mmap(-1, 0, probeRing*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("speed probe: %w", err)
	}
	p := &speedProbe{
		ring:  unsafe.Slice((*int32)(unsafe.Pointer(&mem[0])), probeRing),
		procs: procs,
		outs:  make([][]probeRec, procs),
		sink:  make([]int32, procs),
	}
	// Sattolo's shuffle: one cycle through every entry, in an order the
	// prefetcher cannot follow.
	for i := range p.ring {
		p.ring[i] = int32(i)
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := len(p.ring) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		p.ring[i], p.ring[j] = p.ring[j], p.ring[i]
	}
	recs := make([]probeRec, probeRecs)
	for i := range recs {
		recs[i] = probeRec{Time: float64(i) * 1.5, Work: 3.25 + float64(i%7), Unit: i % 16}
	}
	p.doc, _ = json.Marshal(recs)
	for g := range p.outs {
		p.outs[g] = make([]probeRec, 0, probeRecs)
	}
	return p, nil
}

// sample runs the kernel on every CPU at once and returns its mean time
// in milliseconds. Nothing else of the benchmark may run meanwhile.
func (p *speedProbe) sample() float64 {
	times := make([][probeParts]time.Duration, p.procs)
	var wg sync.WaitGroup
	for g := range p.procs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			at := int32(g * (probeRing / p.procs))
			for range probeSteps {
				at = p.ring[at]
			}
			t1 := time.Now()
			for _, v := range p.ring {
				at += v
			}
			p.sink[g] = at
			t2 := time.Now()
			for range probeDecodes {
				_ = json.Unmarshal(p.doc, &p.outs[g])
			}
			times[g] = [probeParts]time.Duration{t1.Sub(t0), t2.Sub(t1), time.Since(t2)}
		}()
	}
	wg.Wait()
	var total float64
	for k := range probeParts {
		var sum time.Duration
		for _, t := range times {
			sum += t[k]
		}
		part := ms(sum) / float64(p.procs)
		p.parts[k] = append(p.parts[k], part)
		total += part
	}
	return total
}

// partMedians names the kernel's parts with their median times.
func (p *speedProbe) partMedians() map[string]float64 {
	return map[string]float64{"chase_ms": median(p.parts[0]), "stream_ms": median(p.parts[1]), "decode_ms": median(p.parts[2])}
}

// probePoint is one probe sample in a timed window, with the process
// CPU time just before and just after it.
type probePoint struct {
	at       time.Time
	ms       float64
	cpuStart time.Duration
	cpuEnd   time.Duration
}

// scale is the factor that quotes a time measured between two probe
// samples of a and b milliseconds at the reference speed.
func scale(a, b float64) float64 { return 2 * probeRefMS / (a + b) }
