package mpi

import (
	"fmt"
	"math"
	"testing"

	"xcbc/internal/cluster"
)

func world(t *testing.T, n int) *World {
	t.Helper()
	w, err := NewWorld(n, cluster.GigabitEthernet)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestWorldSizeValidation(t *testing.T) {
	if _, err := NewWorld(0, cluster.GigabitEthernet); err == nil {
		t.Fatal("size 0 should fail")
	}
	w := world(t, 3)
	if w.size != 3 {
		t.Fatalf("size = %d", w.size)
	}
}

func TestSendRecv(t *testing.T) {
	w := world(t, 2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 7, []float64{1, 2, 3})
		}
		data, err := c.Recv(0, 7)
		if err != nil {
			return err
		}
		if len(data) != 3 || data[2] != 3 {
			return fmt.Errorf("got %v", data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendCopiesBuffer(t *testing.T) {
	w := world(t, 2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			buf := []float64{42}
			if err := c.Send(1, 0, buf); err != nil {
				return err
			}
			buf[0] = -1 // mutate after send; receiver must see 42
			return c.Send(1, 1, nil)
		}
		if _, err := c.Recv(0, 1); err != nil { // rank 0 has mutated by now
			return err
		}
		data, err := c.Recv(0, 0)
		if err != nil {
			return err
		}
		if data[0] != 42 {
			return fmt.Errorf("send did not copy: got %v", data[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvTagMatchingOutOfOrder(t *testing.T) {
	w := world(t, 2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 1, []float64{1})
			c.Send(1, 2, []float64{2})
			return nil
		}
		// Receive tag 2 first even though tag 1 arrives first.
		d2, err := c.Recv(0, 2)
		if err != nil {
			return err
		}
		d1, err := c.Recv(0, 1)
		if err != nil {
			return err
		}
		if d2[0] != 2 || d1[0] != 1 {
			return fmt.Errorf("tag matching broken: %v %v", d1, d2)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInvalidSends(t *testing.T) {
	w := world(t, 2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(5, 0, nil); err == nil {
				return fmt.Errorf("send to invalid rank should fail")
			}
			if err := c.Send(0, 0, nil); err == nil {
				return fmt.Errorf("self-send should fail")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcastFromEveryRoot(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		for root := 0; root < n; root++ {
			w := world(t, n)
			err := w.Run(func(c *Comm) error {
				buf := make([]float64, 4)
				if c.Rank() == root {
					for i := range buf {
						buf[i] = float64(root*10 + i)
					}
				}
				if err := c.Bcast(root, buf); err != nil {
					return err
				}
				for i := range buf {
					if buf[i] != float64(root*10+i) {
						return fmt.Errorf("rank %d buf = %v", c.Rank(), buf)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("n=%d root=%d: %v", n, root, err)
			}
		}
	}
}

func TestBcastInvalidRoot(t *testing.T) {
	w := world(t, 2)
	err := w.Run(func(c *Comm) error {
		if err := c.Bcast(9, nil); err == nil {
			return fmt.Errorf("invalid root should fail")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceSum(t *testing.T) {
	for _, n := range []int{1, 2, 4, 7} {
		w := world(t, n)
		err := w.Run(func(c *Comm) error {
			buf := []float64{float64(c.Rank() + 1), 1}
			if err := c.Reduce(0, buf, OpSum); err != nil {
				return err
			}
			if c.Rank() == 0 {
				wantA := float64(n*(n+1)) / 2
				if buf[0] != wantA || buf[1] != float64(n) {
					return fmt.Errorf("reduce = %v, want [%v %v]", buf, wantA, n)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestAllreduceMaxMin(t *testing.T) {
	w := world(t, 6)
	err := w.Run(func(c *Comm) error {
		buf := []float64{float64(c.Rank()), -float64(c.Rank())}
		if err := c.Allreduce(buf, math.Max); err != nil {
			return err
		}
		if buf[0] != 5 || buf[1] != 0 {
			return fmt.Errorf("rank %d allreduce max = %v", c.Rank(), buf)
		}
		buf2 := []float64{float64(c.Rank())}
		if err := c.Allreduce(buf2, math.Min); err != nil {
			return err
		}
		if buf2[0] != 0 {
			return fmt.Errorf("allreduce min = %v", buf2)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAllreduceIsDeterministic holds a floating-point sum to one result:
// with these magnitudes the order of the additions decides the answer, so a
// reduce that folded its children in arrival order returned 6.2 or 6.0
// depending on goroutine scheduling.
func TestAllreduceIsDeterministic(t *testing.T) {
	vals := []float64{0.1, 1e16, 3, -1e16, 0.7, 1, 0.2, 0.3}
	// The serial fold the binomial tree performs: each rank adds its
	// children's subtree sums to its own value, lowest child first.
	var fold func(v int) float64
	fold = func(v int) float64 {
		acc := vals[v]
		for _, child := range childrenOf(v, len(vals)) {
			acc = OpSum(acc, fold(child))
		}
		return acc
	}
	want := fold(0)
	if math.Abs(want-6.2) > 1e-9 {
		t.Fatalf("serial tree fold = %v, want 6.2", want)
	}
	for run := 0; run < 2000; run++ {
		w := world(t, len(vals))
		err := w.Run(func(c *Comm) error {
			buf := []float64{vals[c.Rank()]}
			if err := c.Allreduce(buf, OpSum); err != nil {
				return err
			}
			if math.Float64bits(buf[0]) != math.Float64bits(want) {
				return fmt.Errorf("rank %d allreduce = %v, want %v", c.Rank(), buf[0], want)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
	}
}

func TestRingPass(t *testing.T) {
	// Classic ring: rank 0 injects a token, each rank increments and passes.
	n := 6
	w := world(t, n)
	err := w.Run(func(c *Comm) error {
		next := (c.Rank() + 1) % n
		prev := (c.Rank() + n - 1) % n
		if c.Rank() == 0 {
			if err := c.Send(next, 0, []float64{0}); err != nil {
				return err
			}
			data, err := c.Recv(prev, 0)
			if err != nil {
				return err
			}
			if data[0] != float64(n-1) {
				return fmt.Errorf("token = %v, want %d", data[0], n-1)
			}
			return nil
		}
		data, err := c.Recv(prev, 0)
		if err != nil {
			return err
		}
		return c.Send(next, 0, []float64{data[0] + 1})
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCommTimeModel(t *testing.T) {
	w := world(t, 2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 0, make([]float64, 125000)) // 1 MB
		}
		_, err := c.Recv(0, 0)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	// 1 MB over GigE: 1e6/1.25e8 = 8 ms, plus 50 us latency, charged to
	// both ends.
	want := 0.008 + 50e-6
	if got := w.MaxCommSeconds(); math.Abs(got-want) > 1e-9 {
		t.Errorf("comm time = %v, want %v", got, want)
	}
}

func TestFasterNetworkChargesLess(t *testing.T) {
	run := func(net cluster.Network) float64 {
		w, _ := NewWorld(2, net)
		w.Run(func(c *Comm) error {
			if c.Rank() == 0 {
				return c.Send(1, 0, make([]float64, 1<<16))
			}
			_, err := c.Recv(0, 0)
			return err
		})
		return w.MaxCommSeconds()
	}
	if gige, ib := run(cluster.GigabitEthernet), run(cluster.InfinibandQDR); ib >= gige {
		t.Errorf("IB (%v) should be faster than GigE (%v)", ib, gige)
	}
}

func TestRankPanicReported(t *testing.T) {
	w := world(t, 3)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 1 {
			panic("boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("panic should surface as error")
	}
}
