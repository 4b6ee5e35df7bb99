package bdserve

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"bdhtm/internal/crashfuzz"
	"bdhtm/internal/kv"
	"bdhtm/internal/nvm"
	"bdhtm/internal/wire"
)

// TestGroupCommitDurabilityAcrossCrash is the service-level durability
// contract, checked deterministically: a scripted client against a
// Manual-epoch server performs two batches of writes, drives advances so
// the first batch is acked durable, then the machine crashes with the
// second batch acked only applied. After epoch.Recover:
//
//   - every op acked durable must be present with its exact value;
//   - ops acked only applied may be lost, but the recovered state must
//     still be an epoch-window cut of the history (crashfuzz checker) —
//     no torn or reordered survivors.
func TestGroupCommitDurabilityAcrossCrash(t *testing.T) {
	for _, structure := range kv.Names(kv.IsBuffered) {
		t.Run(structure, func(t *testing.T) {
			const keySpace = 1 << 8
			cfg := Config{Structure: structure, KeySpace: keySpace, Manual: true}
			srv := New(cfg)
			addr, err := srv.Start("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			c := dial(t, addr)

			var history []crashfuzz.Op
			var clock uint64
			durableAcked := map[uint64]uint64{} // key -> value acked durable

			put := func(id, k, v uint64) (epoch uint64) {
				t.Helper()
				c.send(wire.Msg{Type: wire.CmdPut, ID: id, Key: k, Value: v})
				m := c.recv()
				if m.Type != wire.RespApplied || m.ID != id {
					t.Fatalf("want applied ack for %d, got %+v", id, m)
				}
				clock++
				start := clock
				clock++
				history = append(history, crashfuzz.Op{
					Insert: true, K: k, V: v, OK: true,
					Start: start, End: clock, Epoch: m.Epoch,
				})
				return m.Epoch
			}

			// Batch 1: ten writes, then advance the epoch system until
			// their epochs persist and collect the durable acks.
			var maxEpoch uint64
			for i := uint64(0); i < 10; i++ {
				if e := put(i+1, i, 1000+i); e > maxEpoch {
					maxEpoch = e
				}
			}
			for srv.System().PersistedEpoch() < maxEpoch {
				srv.System().AdvanceOnce()
			}
			for i := uint64(0); i < 10; i++ {
				m := c.recv()
				if m.Type != wire.RespDurable {
					t.Fatalf("want durable ack, got %+v", m)
				}
				if m.Epoch > srv.System().PersistedEpoch() {
					t.Fatalf("durable ack for epoch %d above watermark %d", m.Epoch, srv.System().PersistedEpoch())
				}
				durableAcked[m.ID-1] = 1000 + (m.ID - 1)
			}

			// Batch 2: ten more writes, applied-acked only — no advance, so
			// their epochs never persist before the crash.
			for i := uint64(10); i < 20; i++ {
				put(i+11, i, 2000+i)
			}

			// Power failure.
			srv.Crash(nvm.CrashOptions{})

			// Recovery on the same heap.
			rec := Recover(srv.Heap(), cfg)
			defer rec.Close()
			persisted := rec.System().PersistedEpoch()
			if persisted < maxEpoch {
				t.Fatalf("recovered watermark %d below durable-acked epoch %d", persisted, maxEpoch)
			}
			state := rec.Dump(keySpace)

			// Contract 1: nothing acked durable may be missing or wrong.
			for k, v := range durableAcked {
				got, ok := state[k]
				if !ok {
					t.Fatalf("durable-acked key %d lost across recovery", k)
				}
				if got != v {
					t.Fatalf("durable-acked key %d = %d, want %d", k, got, v)
				}
			}

			// Contract 2: the whole recovered state is an epoch-window cut
			// of the history — applied-only ops are allowed to vanish but
			// not to tear.
			if err := crashfuzz.CheckRecovered(history, persisted, true, state); err != nil {
				t.Fatalf("recovered state violates the epoch cut: %v", err)
			}
			_ = addr
		})
	}
}

// TestAckLagBound pins the BDL-window guarantee as seen by a client: at
// the moment an op is acked durable, the watermark has moved past its
// commit epoch by at most the two-epoch buffered-durability window.
func TestAckLagBound(t *testing.T) {
	srv := New(Config{KeySpace: 1 << 8, Manual: true})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := dial(t, addr)

	for round := uint64(0); round < 8; round++ {
		id := round + 1
		c.send(wire.Msg{Type: wire.CmdPut, ID: id, Key: round, Value: round})
		m := c.recv()
		if m.Type != wire.RespApplied {
			t.Fatalf("want applied, got %+v", m)
		}
		for srv.System().PersistedEpoch() < m.Epoch {
			srv.System().AdvanceOnce()
		}
		d := c.recv()
		if d.Type != wire.RespDurable || d.ID != id {
			t.Fatalf("want durable ack for %d, got %+v", id, d)
		}
	}
	if lag := srv.Stats().MaxAckLag; lag > 2 {
		t.Fatalf("ack lag %d epochs exceeds the BDL window (2)", lag)
	}
}

// TestServeRaceConservation drives multi-connection pipelined load and
// asserts the ack ledger balances exactly: every committed write is
// acked durable exactly once, nothing is double-acked, and the
// service gauges drain to zero on clean disconnect. Run under -race in
// CI's race lane.
func TestServeRaceConservation(t *testing.T) {
	srv, addr := startServer(t, Config{
		KeySpace:    1 << 10,
		EpochLength: 2 * time.Millisecond,
	})

	const conns = 4
	const opsPerConn = 200
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for ci := 0; ci < conns; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			nc, err := net.Dial("tcp", addr.String())
			if err != nil {
				errs <- err
				return
			}
			defer nc.Close()
			w := wire.NewWriter(nc)
			r := wire.NewReader(nc)
			go func() {
				for i := uint64(1); i <= opsPerConn; i++ {
					id := uint64(ci+1)<<32 | i
					w.Write(&wire.Msg{Type: wire.CmdPut, ID: id, Key: i % 512, Value: id})
					if i%16 == 0 {
						w.Flush()
					}
				}
				w.Flush()
			}()
			applied := make(map[uint64]bool, opsPerConn)
			durable := make(map[uint64]bool, opsPerConn)
			nc.SetReadDeadline(time.Now().Add(30 * time.Second))
			for len(durable) < opsPerConn {
				m, err := r.Read()
				if err != nil {
					errs <- fmt.Errorf("conn %d: %v", ci, err)
					return
				}
				switch m.Type {
				case wire.RespApplied:
					if applied[m.ID] {
						errs <- fmt.Errorf("conn %d: duplicate applied ack %d", ci, m.ID)
						return
					}
					applied[m.ID] = true
				case wire.RespDurable:
					if !applied[m.ID] {
						errs <- fmt.Errorf("conn %d: durable ack %d before applied", ci, m.ID)
						return
					}
					if durable[m.ID] {
						errs <- fmt.Errorf("conn %d: duplicate durable ack %d", ci, m.ID)
						return
					}
					durable[m.ID] = true
				default:
					errs <- fmt.Errorf("conn %d: unexpected frame %s", ci, m.Type)
					return
				}
			}
		}(ci)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := srv.Stats()
	total := int64(conns * opsPerConn)
	if st.WriteCommits != total {
		t.Fatalf("write commits %d, want %d", st.WriteCommits, total)
	}
	if st.AppliedAcks != total || st.DurableAcks != total {
		t.Fatalf("ack ledger unbalanced: applied %d durable %d commits %d",
			st.AppliedAcks, st.DurableAcks, st.WriteCommits)
	}
	if st.AckQueue != 0 || st.Inflight != 0 {
		t.Fatalf("gauges did not drain: inflight %d ack-queue %d", st.Inflight, st.AckQueue)
	}
	// Clean disconnects must drain the connection gauge too.
	deadline := time.Now().Add(10 * time.Second)
	for srv.Stats().OpenConns != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("open connections gauge stuck at %d", srv.Stats().OpenConns)
		}
		time.Sleep(time.Millisecond)
	}
}
