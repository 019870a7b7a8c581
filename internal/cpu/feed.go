package cpu

import (
	"context"
	"runtime/pprof"
	"sync/atomic"

	"mellow/internal/trace"
)

// The generator is open-loop: Next reads no simulation state. So while
// RunCancellable runs a phase, the generator runs ahead of the pipeline
// model on a goroutine of its own, and hands its ops over in fixed-size
// batches that the core consumes in generation order (DESIGN.md §3.1, §3.6).

const (
	batchOps   = 512 // trace ops per batch
	batchSlots = 3   // batches cycling between generator and core
)

// opPipe carries one phase's batches from the producer goroutine to the
// core. The producer alone decides where a phase ends: it sends a nil
// batch after its last one, and the core consumes until it receives
// that nil. Between phases every buffer sits in empty, full is drained
// and stop is clear, so one pipe serves any number of phases, cancelled
// ones included. empty holds every buffer the pipe has, and full every
// buffer plus the nil, so no send on them ever blocks.
type opPipe struct {
	bufs  [batchSlots][batchOps]trace.Op
	empty chan []trace.Op // buffers the producer may fill
	full  chan []trace.Op // filled batches in generation order, then nil
	stop  atomic.Bool     // the core abandoned the phase
}

// pipes is the free list of idle pipes. Unlike a sync.Pool it is not
// emptied by garbage collection, so back-to-back simulations reuse the
// same batch buffers instead of allocating new ones. It keeps one pipe
// per simulation running at once, up to 16 (mellowd's workers, a
// mellowbench sweep); pipes beyond that go to the collector.
var pipes = make(chan *opPipe, 16)

func getPipe() *opPipe {
	select {
	case p := <-pipes:
		return p
	default:
	}
	p := &opPipe{
		empty: make(chan []trace.Op, batchSlots),
		full:  make(chan []trace.Op, batchSlots+1),
	}
	for i := range p.bufs {
		p.empty <- p.bufs[i][:]
	}
	return p
}

// putPipe returns an idle pipe to the free list, or drops it when the
// list is full.
func putPipe(p *opPipe) {
	select {
	case pipes <- p:
	default:
	}
}

// generatorLabels mark the producer's samples in a CPU profile.
var generatorLabels = pprof.Labels("sim", "generator")

// produce draws ops from gen into batches until they cover n
// instructions, stopping at the op whose Gap+1 reaches the total (the
// op a one-op-at-a-time loop ends on) or once the core stops the phase.
// It then sends the nil that ends the phase, its last use of the pipe
// and of gen.
func (p *opPipe) produce(ctx context.Context, gen trace.Generator, n uint64) {
	pprof.Do(ctx, generatorLabels, func(context.Context) {
		for n > 0 && !p.stop.Load() {
			buf := <-p.empty
			buf = buf[:cap(buf)]
			k := 0
			for k < len(buf) && n > 0 {
				op := gen.Next()
				buf[k] = op
				k++
				n -= min(n, uint64(op.Gap)+1)
			}
			p.full <- buf[:k]
		}
	})
	p.full <- nil
}

// cancel stops the producer mid-phase, recycling the batches it still
// sends until the nil that ends the phase, and frees the pipe. The
// caller must have handed back the batch it was consuming.
func (p *opPipe) cancel() {
	p.stop.Store(true)
	for b := <-p.full; b != nil; b = <-p.full {
		p.empty <- b
	}
	p.stop.Store(false)
	putPipe(p)
}
