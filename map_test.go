package skiptrie

import (
	"fmt"
	"sync"
	"testing"
)

func TestMapBasics(t *testing.T) {
	m := MustNewMap[string](WithWidth(32))
	m.Store(5, "five")
	m.Store(10, "ten")
	if v, ok := m.Load(5); !ok || v != "five" {
		t.Fatalf("Load(5) = %q, %v", v, ok)
	}
	if _, ok := m.Load(6); ok {
		t.Fatal("Load(6) found a value")
	}
	// Overwrite.
	m.Store(5, "FIVE")
	if v, _ := m.Load(5); v != "FIVE" {
		t.Fatalf("after overwrite Load(5) = %q", v)
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d", m.Len())
	}
	if !m.Delete(5) || m.Delete(5) {
		t.Fatal("delete semantics broken")
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMapLoadOrStore(t *testing.T) {
	m := MustNewMap[int](WithWidth(16))
	v, loaded := m.LoadOrStore(1, 100)
	if loaded || v != 100 {
		t.Fatalf("first LoadOrStore = %d, %v", v, loaded)
	}
	v, loaded = m.LoadOrStore(1, 200)
	if !loaded || v != 100 {
		t.Fatalf("second LoadOrStore = %d, %v", v, loaded)
	}
}

func TestMapOrderedQueries(t *testing.T) {
	m := MustNewMap[string](WithWidth(32))
	m.Store(100, "a")
	m.Store(200, "b")
	m.Store(300, "c")
	k, v, ok := m.Predecessor(250)
	if !ok || k != 200 || v != "b" {
		t.Fatalf("Predecessor(250) = %d, %q, %v", k, v, ok)
	}
	k, v, ok = m.Successor(250)
	if !ok || k != 300 || v != "c" {
		t.Fatalf("Successor(250) = %d, %q, %v", k, v, ok)
	}
	k, v, ok = m.StrictPredecessor(200)
	if !ok || k != 100 || v != "a" {
		t.Fatalf("StrictPredecessor(200) = %d, %q, %v", k, v, ok)
	}
	k, v, ok = m.StrictSuccessor(200)
	if !ok || k != 300 || v != "c" {
		t.Fatalf("StrictSuccessor(200) = %d, %q, %v", k, v, ok)
	}
	k, v, ok = m.Min()
	if !ok || k != 100 || v != "a" {
		t.Fatalf("Min = %d, %q, %v", k, v, ok)
	}
	k, v, ok = m.Max()
	if !ok || k != 300 || v != "c" {
		t.Fatalf("Max = %d, %q, %v", k, v, ok)
	}
}

func TestMapRange(t *testing.T) {
	m := MustNewMap[int](WithWidth(16))
	for k := uint64(0); k < 50; k += 5 {
		m.Store(k, int(k)*2)
	}
	sum := 0
	m.Range(10, func(k uint64, v int) bool {
		sum += v
		return k < 30
	})
	// keys 10,15,20,25,30 -> values 20,30,40,50,60 = 200
	if sum != 200 {
		t.Fatalf("Range sum = %d", sum)
	}
}

func TestMapValueTypes(t *testing.T) {
	type payload struct{ a, b int }
	m := MustNewMap[*payload](WithWidth(16))
	p := &payload{1, 2}
	m.Store(9, p)
	if got, ok := m.Load(9); !ok || got != p {
		t.Fatal("pointer value round-trip failed")
	}
	// Slice values (not comparable) still work.
	ms := MustNewMap[[]int](WithWidth(16))
	ms.Store(1, []int{1, 2, 3})
	if got, ok := ms.Load(1); !ok || len(got) != 3 {
		t.Fatal("slice value round-trip failed")
	}
}

func TestMapConcurrent(t *testing.T) {
	m := MustNewMap[uint64](WithWidth(32))
	var wg sync.WaitGroup
	const workers = 8
	const perG = 800
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g uint64) {
			defer wg.Done()
			base := g << 16
			for i := uint64(0); i < perG; i++ {
				m.Store(base+i, base+i*2)
			}
			for i := uint64(0); i < perG; i++ {
				if v, ok := m.Load(base + i); !ok || v != base+i*2 {
					t.Errorf("Load(%d) = %d, %v", base+i, v, ok)
					return
				}
			}
			for i := uint64(0); i < perG; i += 2 {
				m.Delete(base + i)
			}
		}(uint64(g))
	}
	wg.Wait()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if want := workers * perG / 2; m.Len() != want {
		t.Fatalf("Len = %d, want %d", m.Len(), want)
	}
}

func TestMapConcurrentLoadOrStore(t *testing.T) {
	m := MustNewMap[int](WithWidth(16))
	const workers = 8
	var wg sync.WaitGroup
	winners := make([]int, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := uint64(0); k < 200; k++ {
				if _, loaded := m.LoadOrStore(k, g); !loaded {
					winners[g]++
				}
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for _, w := range winners {
		total += w
	}
	if total != 200 {
		t.Fatalf("%d LoadOrStore winners, want 200", total)
	}
}

func ExampleMap() {
	m := MustNewMap[string](WithWidth(32))
	m.Store(1000, "alpha")
	m.Store(2000, "beta")
	if k, v, ok := m.Predecessor(1500); ok {
		fmt.Println(k, v)
	}
	// Output: 1000 alpha
}
