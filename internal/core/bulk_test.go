package core

import (
	"context"
	"errors"
	"hash/crc32"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"netobjects/internal/pickle"
	"netobjects/internal/transport"
)

// The bulk path's two ownership rules, tested from outside: a handler
// (and a caller, for results) owns the []byte it is given, for good, even
// when that is a view of the frame it arrived in; and a caller's argument
// buffer is borrowed only until its call returns, however it returns.

// keeper retains every argument it is given.
type keeper struct {
	mu   sync.Mutex
	kept [][]byte
}

// Keep retains b and reports its checksum as it arrived.
func (k *keeper) Keep(b []byte) (uint32, error) {
	sum := crc32.ChecksumIEEE(b)
	k.mu.Lock()
	k.kept = append(k.kept, b)
	k.mu.Unlock()
	return sum, nil
}

// Sum checksums b without keeping it.
func (k *keeper) Sum(b []byte) (uint32, error) { return crc32.ChecksumIEEE(b), nil }

// Make returns n seeded bytes, fresh each call.
func (k *keeper) Make(n int64, seed int64) ([]byte, error) {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b, nil
}

// bulkPair is an owner exporting a keeper and a client holding it, over
// the named transport.
func bulkPair(t *testing.T, proto string, opt func(*Options)) (*keeper, *Ref) {
	t.Helper()
	var tr transport.Transport = transport.NewMem()
	if proto == "tcp" {
		tr = transport.NewTCP()
	}
	mk := func(name string) *Space {
		opts := Options{Name: name, Transports: []transport.Transport{tr}, Registry: pickle.NewRegistry(),
			CallTimeout: 10 * time.Second, PingInterval: time.Hour}
		if opt != nil {
			opt(&opts)
		}
		sp, err := NewSpace(opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = sp.Close() })
		return sp
	}
	owner, client := mk("owner"), mk("client")
	k := &keeper{}
	ref, err := owner.Export(k)
	if err != nil {
		t.Fatal(err)
	}
	return k, handoff(t, ref, client)
}

// bulkSizes alternate a megabyte — a view of its slab — with 100 KiB,
// which also arrives chunked and is also a view.
var bulkSizes = []int{1 << 20, 100 << 10}

// TestBulkHandlerKeepsItsArguments: a handler that retains every []byte
// it receives finds each of them intact after two hundred further calls
// have come and gone through the same session, pools and collector — so
// no slab was ever recycled under a view — and writing into one changes
// no other.
func TestBulkHandlerKeepsItsArguments(t *testing.T) {
	for _, proto := range []string{"inmem", "tcp"} {
		t.Run(proto, func(t *testing.T) {
			k, ref := bulkPair(t, proto, nil)
			calls := 200
			if testing.Short() {
				calls = 60
			}
			rng := rand.New(rand.NewSource(1))
			buf := make([]byte, bulkSizes[0])
			want := make([]uint32, calls)
			for i := 0; i < calls; i++ {
				payload := buf[:bulkSizes[i%2]]
				rng.Read(payload)
				want[i] = crc32.ChecksumIEEE(payload)
				outs, err := ref.Call("Keep", payload)
				if err != nil {
					t.Fatal(err)
				}
				if got := outs[0].(uint32); got != want[i] {
					t.Fatalf("call %d: owner saw checksum %x, sent %x", i, got, want[i])
				}
				if i%50 == 49 {
					runtime.GC() // let the collector and the pools do their worst
				}
			}
			k.mu.Lock()
			defer k.mu.Unlock()
			if len(k.kept) != calls {
				t.Fatalf("kept %d arguments of %d", len(k.kept), calls)
			}
			for i, b := range k.kept {
				if len(b) != bulkSizes[i%2] || crc32.ChecksumIEEE(b) != want[i] {
					t.Fatalf("argument %d changed after the call that delivered it returned", i)
				}
			}
			// The handler owns them: scribbling over one leaves the rest.
			for j := range k.kept[0] {
				k.kept[0][j] = 0xEE
			}
			k.kept[0] = append(k.kept[0], 1, 2, 3)
			for i, b := range k.kept[1:] {
				if crc32.ChecksumIEEE(b) != want[i+1] {
					t.Fatalf("writing into argument 0 changed argument %d", i+1)
				}
			}
		})
	}
}

// TestBulkCallerKeepsItsResults is the mirror: the client retains every
// megabyte result, dynamic and typed, and finds them intact later.
func TestBulkCallerKeepsItsResults(t *testing.T) {
	for _, proto := range []string{"inmem", "tcp"} {
		t.Run(proto, func(t *testing.T) {
			_, ref := bulkPair(t, proto, nil)
			calls := 100
			if testing.Short() {
				calls = 30
			}
			var kept [][]byte
			bytesType := []reflect.Type{reflect.TypeOf([]byte(nil))}
			for i := 0; i < calls; i++ {
				n, seed := int64(bulkSizes[i%2]), int64(i)
				var got []byte
				if i%4 < 2 {
					outs, err := ref.Call("Make", n, seed)
					if err != nil {
						t.Fatal(err)
					}
					got = outs[0].([]byte)
				} else {
					outs, err := ref.InvokeTyped("Make", 0, []reflect.Value{reflect.ValueOf(n), reflect.ValueOf(seed)}, bytesType)
					if err != nil {
						t.Fatal(err)
					}
					got = outs[0].Bytes()
				}
				kept = append(kept, got)
				if i%25 == 24 {
					runtime.GC()
				}
			}
			for i, got := range kept {
				want := make([]byte, bulkSizes[i%2])
				rand.New(rand.NewSource(int64(i))).Read(want)
				if crc32.ChecksumIEEE(got) != crc32.ChecksumIEEE(want) || len(got) != len(want) {
					t.Fatalf("result %d changed after the call that returned it", i)
				}
			}
		})
	}
}

// TestBulkCallerReusesItsBuffer: the argument is borrowed until the call
// returns and not a moment longer. One goroutine calls with a buffer it
// overwrites the instant each call comes back — calls that succeeded,
// calls cancelled mid-send, calls that ran out of time mid-send — while a
// second caller keeps the same session busy. Every checksum the owner
// reports matches the bytes as they were when the call was made, and
// under -race nothing is still reading the buffer when it is rewritten.
func TestBulkCallerReusesItsBuffer(t *testing.T) {
	for _, proto := range []string{"inmem", "tcp"} {
		t.Run(proto, func(t *testing.T) {
			_, ref := bulkPair(t, proto, nil)
			rounds := 120
			if testing.Short() {
				rounds = 40
			}
			stop := make(chan struct{})
			var bg sync.WaitGroup
			bg.Add(1)
			go func() { // the next call, always in flight
				defer bg.Done()
				other := make([]byte, 300<<10)
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					other[0] = byte(i)
					want := crc32.ChecksumIEEE(other)
					outs, err := ref.Call("Sum", other)
					if err != nil {
						t.Errorf("background call: %v", err)
						return
					}
					if outs[0].(uint32) != want {
						t.Errorf("background call %d: owner saw other bytes than were sent", i)
						return
					}
				}
			}()
			rng := rand.New(rand.NewSource(2))
			buf := make([]byte, 1<<20)
			var ok, cancelled, late int
			for i := 0; i < rounds; i++ {
				rng.Read(buf[:4096])
				buf[len(buf)-1] = byte(i)
				want := crc32.ChecksumIEEE(buf)
				ctx, cancel := context.Background(), context.CancelFunc(func() {})
				switch i % 3 {
				case 1: // cancelled somewhere inside the send
					ctx, cancel = context.WithCancel(ctx)
					go func(d time.Duration) { time.Sleep(d); cancel() }(time.Duration(rng.Intn(1500)) * time.Microsecond)
				case 2: // out of time somewhere inside the send
					ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(1500))*time.Microsecond)
				}
				outs, err := ref.CallCtx(ctx, "Sum", buf)
				// Ours again, whatever happened.
				for j := range buf {
					buf[j] = 0xEE
				}
				cancel()
				switch {
				case err == nil:
					ok++
					if got := outs[0].(uint32); got != want {
						t.Fatalf("round %d: owner saw checksum %x, the bytes at call time had %x", i, got, want)
					}
				case errors.Is(err, context.Canceled):
					cancelled++
				case errors.Is(err, context.DeadlineExceeded), errors.Is(err, transport.ErrTimeout):
					late++
				default:
					t.Fatalf("round %d: %v", i, err)
				}
			}
			close(stop)
			bg.Wait()
			t.Logf("%d calls returned, %d were cancelled, %d ran out of time", ok, cancelled, late)
			if ok == 0 {
				t.Fatal("no call completed")
			}
		})
	}
}

// TestBulkManySmallPiecesAreCopied: 256 pieces of 4 KiB make a megabyte
// frame, but none of them is a quarter of it, so each reaches the
// handler as a copy — kept pieces would otherwise pin the whole slab
// 4 KiB at a time.
func TestBulkManySmallPiecesAreCopied(t *testing.T) {
	tn := newTestNet(t)
	owner, client := tn.space("owner", nil), tn.space("client", nil)
	p := &pieces{}
	ref, err := owner.Export(p)
	if err != nil {
		t.Fatal(err)
	}
	cref := handoff(t, ref, client)
	arg := make([][]byte, 256)
	for i := range arg {
		arg[i] = make([]byte, 4<<10)
		arg[i][0] = byte(i)
	}
	if _, err := cref.Call("Take", arg); err != nil {
		t.Fatal(err)
	}
	if len(p.got) != len(arg) {
		t.Fatalf("handler got %d pieces", len(p.got))
	}
	for i, piece := range p.got {
		if len(piece) != 4<<10 || piece[0] != byte(i) {
			t.Fatalf("piece %d arrived changed", i)
		}
		// Views of one frame would lie one pickle header apart; copies are
		// allocations of their own, a whole size class apart or anywhere.
		if i > 0 {
			gap := uintptr(unsafe.Pointer(&piece[0])) - uintptr(unsafe.Pointer(&p.got[i-1][0])) - uintptr(len(piece))
			if gap > 0 && gap <= 16 {
				t.Fatalf("pieces %d and %d are views of one buffer, %d bytes apart", i-1, i, gap)
			}
		}
	}
}

type pieces struct{ got [][]byte }

func (p *pieces) Take(b [][]byte) error { p.got = b; return nil }
