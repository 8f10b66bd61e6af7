package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

func TestTraceWraparound(t *testing.T) {
	tr := NewTrace(16)
	for i := 0; i < 100; i++ {
		tr.Add(Event{Kind: EventLevel, Group: i})
	}
	if got := tr.Len(); got != 16 {
		t.Fatalf("len = %d, want 16", got)
	}
	if got := tr.Dropped(); got != 84 {
		t.Fatalf("dropped = %d, want 84", got)
	}
	evs := tr.Events()
	if len(evs) != 16 {
		t.Fatalf("events = %d, want 16", len(evs))
	}
	for i, e := range evs {
		wantSeq := uint64(85 + i)
		if e.Seq != wantSeq {
			t.Fatalf("event %d seq = %d, want %d", i, e.Seq, wantSeq)
		}
		if e.Group != int(wantSeq)-1 {
			t.Fatalf("event %d group = %d, want %d", i, e.Group, wantSeq-1)
		}
	}
}

func TestTraceSince(t *testing.T) {
	tr := NewTrace(32)
	for i := 0; i < 10; i++ {
		tr.Add(Event{Kind: EventRegroup})
	}
	if got := len(tr.Since(7)); got != 3 {
		t.Fatalf("since(7) = %d events, want 3", got)
	}
	if got := tr.Since(10); got != nil {
		t.Fatalf("since(10) = %v, want nil", got)
	}
	if got := len(tr.Since(0)); got != 10 {
		t.Fatalf("since(0) = %d events, want 10", got)
	}
}

func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	if seq := tr.Add(Event{Kind: EventLevel}); seq != 0 {
		t.Fatalf("nil Add = %d", seq)
	}
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Fatal("nil trace not inert")
	}
}

// Concurrent appenders racing a polling reader across many wraps: every
// sequence number is assigned exactly once, reads always see contiguous
// ascending sequences, and nothing trips the race detector.
func TestTraceConcurrentWraparound(t *testing.T) {
	tr := NewTrace(32)
	const writers, perW = 8, 500

	var wg sync.WaitGroup
	seqs := make([][]uint64, writers)
	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		var last uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			evs := tr.Since(last)
			for i, e := range evs {
				if i > 0 && e.Seq != evs[i-1].Seq+1 {
					t.Errorf("non-contiguous read: %d after %d", e.Seq, evs[i-1].Seq)
					return
				}
			}
			if len(evs) > 0 {
				last = evs[len(evs)-1].Seq
			}
		}
	}()

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			seqs[w] = make([]uint64, perW)
			for i := 0; i < perW; i++ {
				seqs[w][i] = tr.Add(Event{Kind: EventLevel, Node: "n", Group: w})
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readerWG.Wait()

	seen := make(map[uint64]bool, writers*perW)
	for _, ss := range seqs {
		prev := uint64(0)
		for _, s := range ss {
			if s == 0 || seen[s] {
				t.Fatalf("sequence %d duplicated or zero", s)
			}
			if s <= prev {
				t.Fatalf("writer sequences not increasing: %d after %d", s, prev)
			}
			seen[s] = true
			prev = s
		}
	}
	if len(seen) != writers*perW {
		t.Fatalf("assigned %d sequences, want %d", len(seen), writers*perW)
	}
	if got := tr.Dropped(); got != writers*perW-32 {
		t.Fatalf("dropped = %d, want %d", got, writers*perW-32)
	}
}

func TestTraceWriteJSONL(t *testing.T) {
	tr := NewTrace(16)
	tr.Add(Event{Kind: EventLevel, Group: 2, From: "ONE", To: "QUORUM", Estimate: 0.12})
	tr.Add(Event{Kind: EventDivergenceHold, Group: 2, Divergence: 0.3})

	var buf bytes.Buffer
	if err := tr.writeJSONL(&buf, 0); err != nil {
		t.Fatal(err)
	}
	var evs []Event
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		evs = append(evs, e)
	}
	if len(evs) != 2 {
		t.Fatalf("lines = %d, want 2", len(evs))
	}
	if evs[0].Kind != EventLevel || evs[0].To != "QUORUM" || evs[0].Estimate != 0.12 {
		t.Fatalf("event 0 round-trip = %+v", evs[0])
	}
	if evs[1].Kind != EventDivergenceHold || evs[1].Divergence != 0.3 {
		t.Fatalf("event 1 round-trip = %+v", evs[1])
	}
	if evs[0].AtMs == 0 {
		t.Fatal("AtMs not stamped")
	}
}
