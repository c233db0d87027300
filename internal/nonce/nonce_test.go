package nonce

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestCryptoSourceUnique(t *testing.T) {
	var src CryptoSource
	seen := make(map[uint64]bool)
	for i := 0; i < 1000; i++ {
		n := src.Next()
		if n == 0 {
			t.Fatal("zero nonce")
		}
		if seen[n] {
			t.Fatalf("duplicate nonce %d after %d draws", n, i)
		}
		seen[n] = true
	}
}

func TestSeqSource(t *testing.T) {
	s := NewSeqSource(1)
	for i, want := range []uint64{1, 2, 3} {
		if got := s.Next(); got != want {
			t.Errorf("draw %d = %d, want %d", i, got, want)
		}
	}
	s = NewSeqSource(100)
	if got := s.Next(); got != 100 {
		t.Errorf("start 100 first draw = %d", got)
	}
	s = NewSeqSource(0)
	if got := s.Next(); got != 1 {
		t.Errorf("start 0 normalizes to 1, got %d", got)
	}
}

func TestSeqSourceZeroValue(t *testing.T) {
	var s SeqSource
	if got := s.Next(); got != 1 {
		t.Errorf("zero-value SeqSource first draw = %d, want 1", got)
	}
}

func TestSeqSourceConcurrent(t *testing.T) {
	var s SeqSource
	const workers, draws = 8, 100
	var mu sync.Mutex
	seen := make(map[uint64]bool)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < draws; i++ {
				n := s.Next()
				mu.Lock()
				if seen[n] {
					t.Errorf("duplicate nonce %d", n)
				}
				seen[n] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(seen) != workers*draws {
		t.Errorf("drew %d unique nonces, want %d", len(seen), workers*draws)
	}
}

func TestMatch(t *testing.T) {
	tests := []struct {
		open, close string
		want        bool
	}{
		{"3847", "3847", true},
		{"3847", "3848", false},
		{"3847", "", false},
		{"", "anything", true}, // no nonce on the open tag: opted out
		{"", "", true},
	}
	for _, tt := range tests {
		if got := Match(tt.open, tt.close); got != tt.want {
			t.Errorf("Match(%q, %q) = %v, want %v", tt.open, tt.close, got, tt.want)
		}
	}
}

// Property: a forged closer only matches when it equals the opening
// nonce exactly — there is no partial or prefix acceptance.
func TestMatchExactness(t *testing.T) {
	f := func(open, close string) bool {
		if open == "" {
			return Match(open, close)
		}
		return Match(open, close) == (open == close)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
