package skiptrie

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// TestOptionValidationErrors: invalid option values fail construction
// with ErrInvalidOption instead of being clamped or silently dropped.
func TestOptionValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		err  error
	}{
		{"map width low", func() error { _, err := NewMap[int](WithWidth(0)); return err }()},
		{"map width high", func() error { _, err := NewMap[int](WithWidth(65)); return err }()},
		{"sharded shards", func() error { _, err := NewSharded[int](WithShards(-1)); return err }()},
		{"sharded max shards", func() error { _, err := NewSharded[int](WithMaxShards(-2)); return err }()},
		{"sharded reshard interval", func() error { _, err := NewSharded[int](WithAutoReshard(-time.Second)); return err }()},
	}
	for _, c := range cases {
		if !errors.Is(c.err, ErrInvalidOption) {
			t.Errorf("%s: err = %v, want ErrInvalidOption", c.name, c.err)
		}
	}
}

// TestOptionFirstErrorWins: with several invalid options, the reported
// error describes the first one applied.
func TestOptionFirstErrorWins(t *testing.T) {
	_, err := NewSharded[int](WithShards(-7), WithWidth(99))
	if !errors.Is(err, ErrInvalidOption) {
		t.Fatalf("err = %v", err)
	}
	if got := err.Error(); got == "" || !strings.Contains(got, "-7") {
		t.Fatalf("error does not name the first failure: %q", got)
	}
}

// TestSharedOptionsApplyEverywhere: every Option is accepted by all
// three constructors and takes effect.
func TestSharedOptionsApplyEverywhere(t *testing.T) {
	var mx Metrics
	st, err := New(WithWidth(20), WithSeed(3), WithMetrics(&mx), WithEagerPrevRepair())
	if err != nil || st.Width() != 20 {
		t.Fatalf("New: %v width=%d", err, st.Width())
	}
	m, err := NewMap[int](WithWidth(24), WithSeed(3))
	if err != nil {
		t.Fatalf("NewMap: %v", err)
	}
	m.Store(1<<24-1, 9)
	if v, ok := m.Load(1<<24 - 1); !ok || v != 9 {
		t.Fatal("map with shared options broken")
	}
	s, err := NewSharded[int](WithWidth(16), WithShards(4), WithMaxShards(8), WithSeed(3))
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	defer s.Close()
	if s.Shards() != 4 {
		t.Fatalf("Shards = %d", s.Shards())
	}
}

// TestMustPanicsOnInvalid: the Must* adapters panic on the errors the
// plain constructors return.
func TestMustPanicsOnInvalid(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("MustNew", func() { MustNew(WithWidth(-3)) })
	mustPanic("MustNewMap", func() { MustNewMap[int](WithWidth(1000)) })
	mustPanic("MustNewSharded", func() { MustNewSharded[int](WithShards(-1)) })
}

// TestShardedOptionsStillWork: the sharding options route through the
// new ShardedOption path with their documented semantics (rounding,
// balancer attachment).
func TestShardedOptionsStillWork(t *testing.T) {
	s := MustNewSharded[int](WithWidth(16), WithShards(3)) // rounds up to 4
	defer s.Close()
	if s.Shards() != 4 {
		t.Fatalf("Shards = %d, want rounded-up 4", s.Shards())
	}
	b := MustNewSharded[int](WithWidth(16), WithShards(2), WithAutoReshard(time.Millisecond))
	b.Store(1, 1)
	b.Close() // must stop the balancer cleanly
}
