package main

import (
	"cmp"
	"fmt"
	"io"
	"slices"
)

// opRec is the root span of one completed operation, recorded by the
// actor that issued it.
type opRec struct {
	t0, t1 int64 // ns since the tracer's epoch
	stamp  int64 // a Put's TS, a Get's TSR: what its messages carry
	key    uint16
	client uint8
	query  uint8 // Get: READ rounds until a candidate was selected
	slow   bool  // Put: the two-round W phase ran; Get: the write-back ran
}

// phases lists the operation's round trips in order.
func (o opRec) phases(buf []uint8) []uint8 {
	buf = buf[:0]
	if o.client == clientWriter {
		buf = append(buf, phPW)
		if o.slow {
			buf = append(buf, phW0+2, phW0+3)
		}
		return buf
	}
	for r := uint8(1); r <= o.query; r++ {
		buf = append(buf, phRead0+r)
	}
	if o.slow {
		buf = append(buf, phW0+1, phW0+2, phW0+3)
	}
	return buf
}

// msgID packs (client, key, phase, server, stamp) into one map key.
// Stamps count a key's operations, so 40 bits are ample.
func msgID(client uint8, key uint16, phase, server uint8, stamp int64) uint64 {
	return uint64(client)<<63 | uint64(key)<<50 | uint64(phase)<<42 | uint64(server)<<40 | uint64(stamp)&(1<<40-1)
}

// spanTotals is the traced run's span tree, summed over joined ops
// along the blocking path: per round trip, the spans of the server
// whose reply was the quorum-th to arrive (the other servers ran in
// parallel and blocked nothing).
type spanTotals struct {
	ops      int // completed ops in the traced window
	joined   int // ops whose every round trip found its send, step and replies
	negative int // joined ops whose remainder came out below zero: mis-joined spans

	rounds    int   // round trips on the blocking paths
	walSteps  int   // blocking steps that touched the WAL
	op        int64 // ns, Σ op spans
	send      int64 // client.send
	step      int64 // server.step, WAL time included
	walAppend int64
	walCommit int64
	timerWait int64 // round end − arrival of the quorum-th reply
	netQueue  int64 // op − send − step − timerWait: kernel, shard queue, wakeups
}

// joinSpans builds every op's span tree from the recorded spans.
func joinSpans(tr *tracer, ops []opRec) spanTotals {
	nSends, nRecvs, nSteps := 0, 0, 0
	for _, c := range tr.clients {
		nSends += len(c.sends)
		nRecvs += len(c.recvs)
	}
	for _, s := range tr.shards {
		nSteps += len(s.steps)
	}
	// First occurrence wins: a later duplicate is a retransmission.
	sends := make(map[uint64]msgSpan, nSends)
	recvs := make(map[uint64]int64, nRecvs)
	steps := make(map[uint64]stepSpan, nSteps)
	for _, c := range tr.clients {
		for _, s := range c.sends {
			id := msgID(c.client, s.key, s.phase, s.server, s.stamp)
			if _, dup := sends[id]; !dup {
				sends[id] = s
			}
		}
		for _, r := range c.recvs {
			id := msgID(c.client, r.key, r.phase, r.server, r.stamp)
			if _, dup := recvs[id]; !dup {
				recvs[id] = r.t0
			}
		}
	}
	for _, sh := range tr.shards {
		for _, s := range sh.steps {
			id := msgID(s.client, s.key, s.phase, sh.server, s.stamp)
			if _, dup := steps[id]; !dup {
				steps[id] = s
			}
		}
	}

	S, quorum := fleetConfig.S(), fleetConfig.Quorum()
	var tot spanTotals
	tot.ops = len(ops)
	var phaseBuf []uint8
	type arrival struct {
		at     int64
		server uint8
	}
	arrivals := make([]arrival, 0, S)
ops:
	for _, o := range ops {
		phases := o.phases(phaseBuf)
		phaseBuf = phases
		var send, step, walA, walC, wait int64
		walSteps := 0
		for i, ph := range phases {
			arrivals = arrivals[:0]
			for s := 0; s < S; s++ {
				if at, ok := recvs[msgID(o.client, o.key, ph, uint8(s), o.stamp)]; ok {
					arrivals = append(arrivals, arrival{at, uint8(s)})
				}
			}
			if len(arrivals) < quorum {
				continue ops
			}
			slices.SortFunc(arrivals, func(a, b arrival) int { return cmp.Compare(a.at, b.at) })
			blocking := arrivals[quorum-1]
			id := msgID(o.client, o.key, ph, blocking.server, o.stamp)
			sd, okSend := sends[id]
			st, okStep := steps[id]
			if !okSend || !okStep {
				continue ops
			}
			// The round ends when the next round's first message leaves,
			// or with the op.
			end := o.t1
			if i+1 < len(phases) {
				end = -1
				for s := 0; s < S; s++ {
					if nx, ok := sends[msgID(o.client, o.key, phases[i+1], uint8(s), o.stamp)]; ok && (end < 0 || nx.t0 < end) {
						end = nx.t0
					}
				}
				if end < 0 {
					continue ops
				}
			}
			send += sd.t1 - sd.t0
			step += st.t1 - st.t0
			walA += st.walAppend
			walC += st.walCommit
			if st.walAppend+st.walCommit > 0 {
				walSteps++
			}
			wait += end - blocking.at
		}
		tot.joined++
		tot.rounds += len(phases)
		tot.walSteps += walSteps
		rest := (o.t1 - o.t0) - send - step - wait
		if rest < 0 {
			tot.negative++
		}
		tot.op += o.t1 - o.t0
		tot.send += send
		tot.step += step
		tot.walAppend += walA
		tot.walCommit += walC
		tot.timerWait += wait
		tot.netQueue += rest
	}
	return tot
}

// perOpUS is a span total as mean µs per joined op.
func (t spanTotals) perOpUS(ns int64) float64 {
	if t.joined == 0 {
		return 0
	}
	return float64(ns) / float64(t.joined) / 1e3
}

func frac(n, of int) float64 {
	if of == 0 {
		return 0
	}
	return float64(n) / float64(of)
}

// write prints the span tree: per span its count, total and self time
// (a span's time minus its children's), and net_queue as the share of
// op no span explains.
func (t spanTotals) write(w io.Writer) {
	fmt.Fprintf(w, "  span tree along the blocking path: %d ops, %d joined (%.4f), %d negative remainders (%.4f)\n",
		t.ops, t.joined, frac(t.joined, t.ops), t.negative, frac(t.negative, t.joined))
	row := func(name string, count int, total, self int64) {
		share := 0.0
		if t.op > 0 {
			share = float64(self) / float64(t.op)
		}
		fmt.Fprintf(w, "  %-18s count %8d  total %12.3f ms  self %12.3f ms  self/op %10.3f us  share %6.3f\n",
			name, count, float64(total)/1e6, float64(self)/1e6, t.perOpUS(self), share)
	}
	row("op", t.joined, t.op, t.netQueue)
	row("  client.send", t.rounds, t.send, t.send)
	row("  server.step", t.rounds, t.step, t.step-t.walAppend-t.walCommit)
	row("    wal.append", t.walSteps, t.walAppend, t.walAppend)
	row("    wal.commit", t.walSteps, t.walCommit, t.walCommit)
	row("  timer_wait", t.rounds, t.timerWait, t.timerWait)
	row("  net_queue", t.joined, t.netQueue, t.netQueue)
}
