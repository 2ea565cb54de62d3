// Command traceq queries a Chrome trace-event JSON lifecycle trace exported
// with the -trace flag. It reconstructs per-transaction timelines from the
// miss-start / inject / net-arrive / order-commit / miss-done events and
// decomposes each L2 miss into the paper's Figure 10/11-style segments:
//
//	queue  — miss-start until the request's head flit enters the network
//	         (MSHR + NIC queueing + notification wait at the source)
//	bcast  — inject until the broadcast's last destination arrival
//	order  — last arrival until the source NIC's own order-commit
//	serve  — order-commit until miss-done (snoop/memory access + response)
//
// Subcommands:
//
//	traceq path <trace.json> <pkt>   # one packet's full event timeline
//	traceq top  <trace.json> [k]     # k slowest transactions with breakdowns
//	traceq diff <a.json> <b.json>    # compare two runs' latency distributions
//	traceq check <trace.json>        # validate a trace as a complete record
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
)

type rawEvent struct {
	Name string `json:"name"`
	Ph   string `json:"ph"`
	Ts   uint64 `json:"ts"`
	Pid  int64  `json:"pid"`
	Args struct {
		Pkt  uint64 `json:"pkt"`
		Src  int64  `json:"src"`
		Port int64  `json:"port"`
		VNet int64  `json:"vnet"`
		VC   int64  `json:"vc"`
		Arg  uint64 `json:"arg"`
	} `json:"args"`
}

type traceFile struct {
	TraceEvents []rawEvent `json:"traceEvents"`
	Metadata    struct {
		RecordedEvents uint64 `json:"recordedEvents"`
		DroppedEvents  uint64 `json:"droppedEvents"`
	} `json:"metadata"`
}

// txn is one reconstructed L2 miss transaction, keyed by its GO-REQ packet.
type txn struct {
	pkt       uint64
	node      int64  // requesting tile
	addr      uint64 // line address
	missStart uint64
	inject    uint64
	lastArr   uint64 // the broadcast's final destination arrival
	commit    uint64 // the source NIC's own order-commit
	missDone  uint64

	hasStart, hasInject, hasArr, hasCommit, hasDone bool
}

func (t *txn) total() uint64 { return t.missDone - t.missStart }

// segments returns (queue, bcast, order, serve); unknown phases are zero.
// Boundaries are clamped to [missStart, missDone]: a broadcast can still be
// reaching distant tiles after a nearby owner has already served the miss,
// and those late arrivals do not delay the transaction.
func (t *txn) segments() (q, b, o, s uint64) {
	last := t.missStart
	step := func(to uint64, has bool) uint64 {
		if to > t.missDone {
			to = t.missDone
		}
		if !has || to < last {
			return 0
		}
		d := to - last
		last = to
		return d
	}
	q = step(t.inject, t.hasInject)
	b = step(t.lastArr, t.hasArr)
	o = step(t.commit, t.hasCommit)
	s = step(t.missDone, t.hasDone)
	return
}

func load(path string) *traceFile {
	data, err := os.ReadFile(path)
	if err != nil {
		fail(err.Error())
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		fail(fmt.Sprintf("%s: not valid Chrome trace-event JSON: %v", path, err))
	}
	if d := tf.Metadata.DroppedEvents; d > 0 {
		fmt.Fprintf(os.Stderr, "traceq: warning: %s dropped %d of %d recorded events (ring wrapped); reconstructed transactions may be incomplete\n",
			path, d, tf.Metadata.RecordedEvents)
	}
	return &tf
}

// transactions reconstructs every fully observed miss transaction.
func transactions(tf *traceFile) []*txn {
	byPkt := map[uint64]*txn{}
	get := func(pkt uint64) *txn {
		t := byPkt[pkt]
		if t == nil {
			t = &txn{pkt: pkt, node: -1}
			byPkt[pkt] = t
		}
		return t
	}
	for i := range tf.TraceEvents {
		e := &tf.TraceEvents[i]
		if e.Ph != "i" || e.Args.Pkt == 0 {
			continue
		}
		switch e.Name {
		case "miss-start":
			t := get(e.Args.Pkt)
			if !t.hasStart || e.Ts < t.missStart {
				t.missStart, t.node, t.addr, t.hasStart = e.Ts, e.Pid, e.Args.Arg, true
			}
		case "inject":
			t := get(e.Args.Pkt)
			if !t.hasInject || e.Ts < t.inject {
				t.inject, t.hasInject = e.Ts, true
			}
		case "net-arrive":
			t := get(e.Args.Pkt)
			if !t.hasArr || e.Ts > t.lastArr {
				t.lastArr, t.hasArr = e.Ts, true
			}
		case "order-commit":
			t := get(e.Args.Pkt)
			// Every node commits the broadcast; the source's own commit is
			// the one that unblocks its miss.
			if t.hasStart && e.Pid == t.node {
				t.commit, t.hasCommit = e.Ts, true
			}
		case "miss-done":
			t := get(e.Args.Pkt)
			if !t.hasDone || e.Ts > t.missDone {
				t.missDone, t.hasDone = e.Ts, true
			}
		}
	}
	var out []*txn
	for _, t := range byPkt {
		if t.hasStart && t.hasDone && t.missDone >= t.missStart {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].pkt < out[j].pkt })
	return out
}

func cmdPath(path string, pktArg string) {
	pkt, err := strconv.ParseUint(pktArg, 0, 64)
	if err != nil {
		fail(fmt.Sprintf("bad packet id %q: %v", pktArg, err))
	}
	tf := load(path)
	var evs []*rawEvent
	for i := range tf.TraceEvents {
		e := &tf.TraceEvents[i]
		if e.Ph == "i" && e.Args.Pkt == pkt {
			evs = append(evs, e)
		}
	}
	if len(evs) == 0 {
		fail(fmt.Sprintf("%s: no events for packet %d", path, pkt))
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Ts < evs[j].Ts })
	base := evs[0].Ts
	fmt.Printf("packet %d: %d events over %d cycles\n", pkt, len(evs), evs[len(evs)-1].Ts-base)
	for _, e := range evs {
		detail := ""
		switch e.Name {
		case "miss-start", "miss-done":
			detail = fmt.Sprintf("addr=%#x", e.Args.Arg)
		case "inject":
			detail = fmt.Sprintf("flits=%d", e.Args.Arg)
		case "order-commit":
			detail = fmt.Sprintf("seq=%d", e.Args.Arg)
		case "vc-alloc", "buf-write":
			detail = fmt.Sprintf("vnet=%d vc=%d", e.Args.VNet, e.Args.VC)
		case "sa-grant", "bypass":
			detail = fmt.Sprintf("out-port=%d", e.Args.Arg)
		}
		fmt.Printf("  +%6d cycle %-8d node %-3d %-12s %s\n", e.Ts-base, e.Ts, e.Pid, e.Name, detail)
	}
	for _, t := range transactions(tf) {
		if t.pkt != pkt {
			continue
		}
		q, b, o, s := t.segments()
		fmt.Printf("breakdown: total=%d queue=%d bcast=%d order=%d serve=%d (node %d, addr %#x)\n",
			t.total(), q, b, o, s, t.node, t.addr)
	}
}

func cmdTop(path string, k int) {
	tf := load(path)
	txns := transactions(tf)
	if len(txns) == 0 {
		fail(fmt.Sprintf("%s: no fully observed miss transactions (need miss-start and miss-done events)", path))
	}
	sort.SliceStable(txns, func(i, j int) bool { return txns[i].total() > txns[j].total() })
	if k > len(txns) {
		k = len(txns)
	}
	fmt.Printf("%d miss transactions reconstructed; %d slowest:\n", len(txns), k)
	fmt.Printf("%-12s %-5s %-14s %8s %8s %8s %8s %8s\n",
		"pkt", "node", "addr", "total", "queue", "bcast", "order", "serve")
	for _, t := range txns[:k] {
		q, b, o, s := t.segments()
		fmt.Printf("%-12d %-5d %-#14x %8d %8d %8d %8d %8d\n",
			t.pkt, t.node, t.addr, t.total(), q, b, o, s)
	}
	var sq, sb, so, ss, st uint64
	for _, t := range txns {
		q, b, o, s := t.segments()
		sq, sb, so, ss, st = sq+q, sb+b, so+o, ss+s, st+t.total()
	}
	n := float64(len(txns))
	fmt.Printf("mean over all %d: total=%.1f queue=%.1f bcast=%.1f order=%.1f serve=%.1f\n",
		len(txns), float64(st)/n, float64(sq)/n, float64(sb)/n, float64(so)/n, float64(ss)/n)
}

// dist summarises a latency population.
type dist struct {
	n              int
	mean           float64
	p50, p99, max_ uint64
}

func distOf(txns []*txn) dist {
	if len(txns) == 0 {
		return dist{}
	}
	totals := make([]uint64, len(txns))
	var sum uint64
	for i, t := range txns {
		totals[i] = t.total()
		sum += totals[i]
	}
	sort.Slice(totals, func(i, j int) bool { return totals[i] < totals[j] })
	pct := func(p int) uint64 {
		idx := p * (len(totals) - 1) / 100
		return totals[idx]
	}
	return dist{
		n:    len(totals),
		mean: float64(sum) / float64(len(totals)),
		p50:  pct(50), p99: pct(99), max_: totals[len(totals)-1],
	}
}

func cmdDiff(pathA, pathB string) {
	da := distOf(transactions(load(pathA)))
	db := distOf(transactions(load(pathB)))
	if da.n == 0 || db.n == 0 {
		fail("both traces need at least one fully observed miss transaction")
	}
	fmt.Printf("%-24s %8s %10s %8s %8s %8s\n", "trace", "misses", "mean", "p50", "p99", "max")
	fmt.Printf("%-24s %8d %10.1f %8d %8d %8d\n", trim(pathA, 24), da.n, da.mean, da.p50, da.p99, da.max_)
	fmt.Printf("%-24s %8d %10.1f %8d %8d %8d\n", trim(pathB, 24), db.n, db.mean, db.p50, db.p99, db.max_)
	fmt.Printf("%-24s %8d %+10.1f %+8d %+8d %+8d\n", "delta (B-A)",
		db.n-da.n, db.mean-da.mean,
		int64(db.p50)-int64(da.p50), int64(db.p99)-int64(da.p99), int64(db.max_)-int64(da.max_))
}

// check validates a trace as a complete lifecycle record: it must be
// non-empty, hold at least one packet whose inject -> sink lifecycle is fully
// reconstructable, and report no dropped events (a tracer ring that wrapped
// has overwritten the oldest events, so span reconstruction is lossy).
func check(tf *traceFile) error {
	if len(tf.TraceEvents) == 0 {
		return errors.New("trace is empty")
	}
	if d := tf.Metadata.DroppedEvents; d > 0 {
		return fmt.Errorf("tracer dropped %d of %d recorded events (ring wrapped), so span reconstruction is lossy; rerun with a larger trace capacity",
			d, tf.Metadata.RecordedEvents)
	}
	injected := map[uint64]bool{}
	for _, e := range tf.TraceEvents {
		switch {
		case e.Ph != "i" || e.Args.Pkt == 0:
		case e.Name == "inject":
			injected[e.Args.Pkt] = true
		case e.Name == "sink" && injected[e.Args.Pkt]:
			return nil
		}
	}
	return errors.New("no packet has both an inject and a sink event")
}

func cmdCheck(path string) {
	tf := load(path)
	if err := check(tf); err != nil {
		fail(fmt.Sprintf("%s: %v", path, err))
	}
	fmt.Printf("traceq: %s ok, %d events, 0 dropped\n", path, len(tf.TraceEvents))
}

func trim(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return "…" + s[len(s)-n+1:]
}

func main() {
	args := os.Args[1:]
	if len(args) < 2 {
		usage()
	}
	switch args[0] {
	case "path":
		if len(args) != 3 {
			usage()
		}
		cmdPath(args[1], args[2])
	case "top":
		k := 10
		if len(args) == 3 {
			v, err := strconv.Atoi(args[2])
			if err != nil || v <= 0 {
				fail(fmt.Sprintf("bad k %q", args[2]))
			}
			k = v
		} else if len(args) != 2 {
			usage()
		}
		cmdTop(args[1], k)
	case "diff":
		if len(args) != 3 {
			usage()
		}
		cmdDiff(args[1], args[2])
	case "check":
		if len(args) != 2 {
			usage()
		}
		cmdCheck(args[1])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  traceq path <trace.json> <pkt>   reconstruct one packet's event timeline
  traceq top  <trace.json> [k]     k slowest miss transactions with breakdowns
  traceq diff <a.json> <b.json>    compare two runs' miss-latency distributions
  traceq check <trace.json>        validate: non-empty, an inject->sink packet, no drops`)
	os.Exit(2)
}

func fail(msg string) {
	fmt.Fprintln(os.Stderr, "traceq:", msg)
	os.Exit(1)
}
