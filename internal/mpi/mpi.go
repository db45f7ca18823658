// Package mpi implements a small message-passing runtime in the spirit of
// MPI: a fixed set of ranks executing the same function, point-to-point
// sends/receives with tag matching, and the collectives (broadcast,
// reduce, allreduce) the XCBC software stack exists to support.
// Ranks run as goroutines and exchange data over channels.
//
// Each communicator also carries an analytic network cost model: every
// transfer charges latency + size/bandwidth to the participating ranks'
// communication clocks, so examples and benchmarks can report modelled
// communication time on a given cluster interconnect without wall-clock
// noise.
package mpi

import (
	"fmt"
	"sort"
	"sync"

	"xcbc/internal/cluster"
)

// message is one in-flight point-to-point transfer.
type message struct {
	from int
	tag  int
	data []float64
}

// World is a group of ranks wired all-to-all.
type World struct {
	size  int
	net   cluster.Network
	boxes []chan message // per-receiver inbox

	mu       sync.Mutex
	commSecs []float64 // modelled communication seconds per rank
}

// NewWorld creates a world of n ranks over the given interconnect.
// Inboxes are buffered generously so simple send patterns do not deadlock.
func NewWorld(n int, net cluster.Network) (*World, error) {
	if n < 1 {
		return nil, fmt.Errorf("mpi: world size must be >= 1, got %d", n)
	}
	w := &World{
		size:     n,
		net:      net,
		boxes:    make([]chan message, n),
		commSecs: make([]float64, n),
	}
	for i := range w.boxes {
		w.boxes[i] = make(chan message, 64*n)
	}
	return w, nil
}

// Run executes fn on every rank concurrently and waits for all to return.
// Any rank panicking is recovered and returned as an error naming the rank.
func (w *World) Run(fn func(c *Comm) error) error {
	errs := make([]error, w.size)
	var wg sync.WaitGroup
	for r := 0; r < w.size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[rank] = fmt.Errorf("mpi: rank %d panicked: %v", rank, p)
				}
			}()
			errs[rank] = fn(&Comm{world: w, rank: rank})
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// MaxCommSeconds returns the modelled communication time of the slowest rank
// (the one that bounds parallel runtime).
func (w *World) MaxCommSeconds() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	max := 0.0
	for _, s := range w.commSecs {
		if s > max {
			max = s
		}
	}
	return max
}

// charge adds modelled transfer time for nbytes to the given ranks.
func (w *World) charge(nbytes int, ranks ...int) {
	secs := w.net.LatencyUs/1e6 + float64(nbytes)/w.net.BytesPerSec()
	w.mu.Lock()
	for _, r := range ranks {
		w.commSecs[r] += secs
	}
	w.mu.Unlock()
}

// Comm is one rank's handle on the world.
type Comm struct {
	world *World
	rank  int
	// pending holds received-but-unmatched messages (tag mismatch), per
	// MPI's unexpected-message queue.
	pending []message
}

// Rank returns this rank's index.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.world.size }

// Send transfers data to rank dst with a tag. The data is copied, so the
// sender may reuse the buffer immediately (MPI's buffered-send semantics).
func (c *Comm) Send(dst, tag int, data []float64) error {
	if dst < 0 || dst >= c.world.size {
		return fmt.Errorf("mpi: send to invalid rank %d", dst)
	}
	if dst == c.rank {
		return fmt.Errorf("mpi: rank %d sending to itself", c.rank)
	}
	buf := append([]float64(nil), data...)
	c.world.boxes[dst] <- message{from: c.rank, tag: tag, data: buf}
	c.world.charge(8*len(data), c.rank, dst)
	return nil
}

// Recv blocks until a message from rank src with the given tag arrives and
// returns its payload.
func (c *Comm) Recv(src, tag int) ([]float64, error) {
	// First scan the unexpected-message queue.
	for i, m := range c.pending {
		if matches(m, src, tag) {
			c.pending = append(c.pending[:i:i], c.pending[i+1:]...)
			return m.data, nil
		}
	}
	for {
		m, ok := <-c.world.boxes[c.rank]
		if !ok {
			return nil, fmt.Errorf("mpi: rank %d inbox closed", c.rank)
		}
		if matches(m, src, tag) {
			return m.data, nil
		}
		c.pending = append(c.pending, m)
	}
}

func matches(m message, src, tag int) bool { return m.from == src && m.tag == tag }

const bcastTag = -1000

// Bcast distributes root's buffer to all ranks using a binomial tree (the
// algorithm MPICH/Open MPI use for short and medium messages). Every rank
// must pass a buffer of the same length; non-root buffers are overwritten.
func (c *Comm) Bcast(root int, buf []float64) error {
	size := c.world.size
	if root < 0 || root >= size {
		return fmt.Errorf("mpi: bcast from invalid root %d", root)
	}
	if size == 1 {
		return nil
	}
	// Re-index so root is virtual rank 0.
	vrank := (c.rank - root + size) % size
	// Receive from parent (except virtual root).
	if vrank != 0 {
		parent := (parentOf(vrank) + root) % size
		data, err := c.Recv(parent, bcastTag)
		if err != nil {
			return err
		}
		if len(data) != len(buf) {
			return fmt.Errorf("mpi: bcast length mismatch: have %d, got %d", len(buf), len(data))
		}
		copy(buf, data)
	}
	// Forward to children.
	for _, vchild := range childrenOf(vrank, size) {
		child := (vchild + root) % size
		if err := c.Send(child, bcastTag, buf); err != nil {
			return err
		}
	}
	return nil
}

// parentOf returns the binomial-tree parent of a virtual rank: clear the
// lowest set bit.
func parentOf(vrank int) int { return vrank & (vrank - 1) }

// childrenOf lists the binomial-tree children of a virtual rank.
func childrenOf(vrank, size int) []int {
	var out []int
	for bit := 1; ; bit <<= 1 {
		if vrank&(bit-1) != 0 || vrank|bit == vrank {
			break
		}
		child := vrank | bit
		if child >= size {
			break
		}
		out = append(out, child)
	}
	sort.Ints(out)
	return out
}

// ReduceOp combines two values.
type ReduceOp func(a, b float64) float64

// Builtin reduction operators.
var (
	OpSum ReduceOp = func(a, b float64) float64 { return a + b }
)

const reduceTag = -1001

// Reduce combines every rank's buffer elementwise into root's buffer.
func (c *Comm) Reduce(root int, buf []float64, op ReduceOp) error {
	size := c.world.size
	if size == 1 {
		return nil
	}
	// Gather up a binomial tree rooted at root (reverse of Bcast).
	vrank := (c.rank - root + size) % size
	children := childrenOf(vrank, size)
	acc := append([]float64(nil), buf...)
	// Fold the children in ascending rank, never in arrival order:
	// floating-point addition is not associative, so a fixed order is what
	// makes the result the same bits on every run.
	for _, vchild := range children {
		data, err := c.Recv((vchild+root)%size, reduceTag)
		if err != nil {
			return err
		}
		if len(data) != len(acc) {
			return fmt.Errorf("mpi: reduce length mismatch")
		}
		for i := range acc {
			acc[i] = op(acc[i], data[i])
		}
	}
	if vrank != 0 {
		parent := (parentOf(vrank) + root) % size
		return c.Send(parent, reduceTag, acc)
	}
	copy(buf, acc)
	return nil
}

// Allreduce is Reduce to rank 0 followed by Bcast, the textbook
// implementation.
func (c *Comm) Allreduce(buf []float64, op ReduceOp) error {
	if err := c.Reduce(0, buf, op); err != nil {
		return err
	}
	return c.Bcast(0, buf)
}
