package main

import (
	"fmt"
	"sync"

	tart "repro"
)

// checker validates the sink stream of one run and feeds error_rate. It
// does not trust tart.DedupOutputs, which silently accepts a sink sequence
// that jumps ahead. Every output is classified by its sink sequence
// number:
//
//   - Seq == next: a new output. Its input (source, per-source seq) must
//     not have been delivered before, and must come after the previous
//     output of the same source.
//   - Seq > next: the outputs in between are missing (a gap); the output
//     itself is then taken as new.
//   - Seq < next: a repeat. It is permitted stutter only after a restart,
//     only for sequence numbers delivered before that restart, and only
//     if it carries the same input as the first delivery; anything else is
//     an extra duplicate.
//
// After the run drains, every emitted input without an output is lost.
// State checks made after restarts are counted here too.
type checker struct {
	mu        sync.Mutex
	next      uint64
	replays   bool      // the run restarts: keep inputOf for its stutter checks
	inputOf   []inputID // sink Seq-1 -> the input that output carried, when replays
	stutterTo uint64    // repeats with Seq <= stutterTo are permitted stutter
	lastSeq   [3]uint64 // per source: highest per-source seq delivered
	seen      [3]bitset // per source: per-source seqs delivered as new outputs
	arrived   [3]bitset // per source: per-source seqs carried by any output
	emitted   [3]uint64 // per source: inputs emitted successfully

	gaps, dups, orderBreaks, lost, failedEmits uint64
	stateChecks, stateMismatches               uint64
	stutter                                    uint64
}

type inputID struct {
	src uint8
	seq uint64
}

type bitset []uint64

func (b *bitset) set(i uint64) (was bool) {
	w := int(i / 64)
	for len(*b) <= w {
		*b = append(*b, 0)
	}
	was = (*b)[w]&(1<<(i%64)) != 0
	(*b)[w] |= 1 << (i % 64)
	return was
}

func (b bitset) count() uint64 {
	var n uint64
	for _, w := range b {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

func newChecker() *checker { return &checker{next: 1} }

// output classifies one sink output and reports whether it is new (not
// stutter and not a duplicate); only new outputs count as deliveries.
func (c *checker) output(o tart.Output) bool {
	r := o.Payload.(Req)
	id := inputID{src: r.Src, seq: r.Seq}
	c.mu.Lock()
	defer c.mu.Unlock()
	if r.Src >= 1 && r.Src <= 2 {
		c.arrived[r.Src].set(r.Seq)
	}
	if o.Seq < c.next {
		if o.Seq <= c.stutterTo && c.inputOf[o.Seq-1] == id {
			c.stutter++
		} else {
			c.dups++
		}
		return false
	}
	if o.Seq > c.next {
		c.gaps += o.Seq - c.next
		for s := c.next; c.replays && s < o.Seq; s++ {
			c.inputOf = append(c.inputOf, inputID{})
		}
	}
	c.next = o.Seq + 1
	if c.replays {
		c.inputOf = append(c.inputOf, id)
	}
	if r.Src < 1 || r.Src > 2 {
		c.dups++
		return false
	}
	if c.seen[r.Src].set(r.Seq) {
		c.dups++
		return false
	}
	if r.Seq < c.lastSeq[r.Src] {
		c.orderBreaks++
	} else {
		c.lastSeq[r.Src] = r.Seq
	}
	return true
}

// emitted records the outcome of one Emit call.
func (c *checker) emitDone(src uint8, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		c.failedEmits++
		return
	}
	c.emitted[src]++
}

// restarted marks every sink sequence delivered so far as eligible for
// replay stutter. Only a checker with replays set may be restarted.
func (c *checker) restarted() {
	c.mu.Lock()
	c.stutterTo = c.next - 1
	c.mu.Unlock()
}

// delivered reports how many distinct inputs of src have an output.
func (c *checker) delivered(src uint8) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.seen[src].count()
}

// pending reports how many successfully emitted inputs have not reached
// the sink in any output, accepted or not.
func (c *checker) pending() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n uint64
	for s := 1; s <= 2; s++ {
		n += c.emitted[s] - c.arrived[s].count()
	}
	return n
}

// verify records one state check: the merger's state digest against the
// generator's reference fold, or the WAL records a restart replayed
// against the suffix it was given.
func (c *checker) verify(ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stateChecks++
	if !ok {
		c.stateMismatches++
	}
}

// stutterCount is the number of repeats accepted as replay stutter.
func (c *checker) stutterCount() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stutter
}

// finish counts the inputs still without an output as lost. Call it once
// the run has drained.
func (c *checker) finish() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lost = 0
	for s := 1; s <= 2; s++ {
		c.lost += c.emitted[s] - c.seen[s].count()
	}
}

// attempted is the number of checked operations: emits tried and state
// checks made.
func (c *checker) attempted() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.emitted[1] + c.emitted[2] + c.failedEmits + c.stateChecks
}

// failed is the number of failed operations.
func (c *checker) failed() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failedEmits + c.lost + c.dups + c.gaps + c.orderBreaks + c.stateMismatches
}

func (c *checker) String() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return fmt.Sprintf("emitted=%d failed_emits=%d lost=%d gaps=%d extra_dups=%d order_breaks=%d state_checks=%d state_mismatches=%d stutter=%d",
		c.emitted[1]+c.emitted[2], c.failedEmits, c.lost, c.gaps, c.dups, c.orderBreaks,
		c.stateChecks, c.stateMismatches, c.stutter)
}
