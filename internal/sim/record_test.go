package sim

import "testing"

func TestBytePoolAndSlotPoolRecycle(t *testing.T) {
	bp := NewBytePool(2, 8)
	b := bp.Get()
	if len(b) != 0 || cap(b) < 8 {
		t.Fatalf("Get: len=%d cap=%d", len(b), cap(b))
	}
	b = append(b, 1, 2, 3)
	bp.Put(b)
	b2 := bp.Get()
	if len(b2) != 0 || cap(b2) < 8 {
		t.Fatalf("recycled Get: len=%d cap=%d", len(b2), cap(b2))
	}
	bp.Put(make([]byte, 0, 2)) // undersized: dropped, not poisoning the pool
	if g := bp.Get(); cap(g) < 8 {
		t.Fatalf("undersized slice entered the pool: cap=%d", cap(g))
	}

	sp := NewSlotPool(1, 4)
	s := sp.Get()
	s = append(s, 9)
	sp.Put(s)
	sp.Put(make([]int32, 0, 4)) // pool full: dropped silently
	if s2 := sp.Get(); len(s2) != 0 || cap(s2) < 4 {
		t.Fatalf("slot Get: len=%d cap=%d", len(s2), cap(s2))
	}
}
