package sim

// OpKind identifies which operation a Record carries. Kind 0 is
// reserved as "invalid" so a zero Record never looks like a real op.
type OpKind uint8

// Record is the unit of work a Lanes worker executes, carried by value.
// The fields are deliberately generic — a coordinate tuple, two scalars
// and two optional vectors — so one struct shape covers every op in the
// device model without per-op allocation. Unused fields are simply
// zero. The vectors (Data, Slots) follow free-list discipline: take
// from a Pool, hand to the record, recycle in the lane worker.
type Record struct {
	Kind OpKind

	// Device coordinates: the scheduling site fills whichever apply.
	Chip    int32
	Channel int32
	Block   int32
	Page    int32
	// Second coordinate pair, for two-address ops (copyback src→dst).
	Block2 int32
	Page2  int32

	// Aux carries one op-specific scalar (typically the op's dep/now
	// timestamp as int64 Micros).
	Aux int64

	// Data is an optional byte payload (e.g. a program's page image).
	Data []byte
	// Slots is an optional index vector (e.g. pLock slot numbers or
	// packed page ids for multi-plane groups).
	Slots []int32
}

// BytePool is a fixed-capacity free list of byte slices for Record.Data
// payloads. Get returns a zero-length slice with at least the configured
// capacity; Put recycles one. Both are non-blocking: an empty pool
// allocates, a full pool lets the GC take the surplus. Safe for
// concurrent use (it is a buffered channel underneath).
type BytePool struct {
	ch  chan []byte
	cap int
}

// NewBytePool returns a pool holding up to n slices of byte capacity c.
func NewBytePool(n, c int) *BytePool {
	return &BytePool{ch: make(chan []byte, n), cap: c}
}

// Get returns an empty slice with capacity ≥ the pool's slice capacity.
func (p *BytePool) Get() []byte {
	select {
	case b := <-p.ch:
		return b[:0]
	default:
		return make([]byte, 0, p.cap)
	}
}

// Put recycles b; undersized or surplus slices are dropped.
func (p *BytePool) Put(b []byte) {
	if cap(b) < p.cap {
		return
	}
	select {
	case p.ch <- b:
	default:
	}
}

// SlotPool is the free list for Record.Slots vectors, mirroring BytePool.
type SlotPool struct {
	ch  chan []int32
	cap int
}

// NewSlotPool returns a pool holding up to n vectors of capacity c.
func NewSlotPool(n, c int) *SlotPool {
	return &SlotPool{ch: make(chan []int32, n), cap: c}
}

// Get returns an empty vector with capacity ≥ the pool's capacity.
func (p *SlotPool) Get() []int32 {
	select {
	case s := <-p.ch:
		return s[:0]
	default:
		return make([]int32, 0, p.cap)
	}
}

// Put recycles s; undersized or surplus vectors are dropped.
func (p *SlotPool) Put(s []int32) {
	if cap(s) < p.cap {
		return
	}
	select {
	case p.ch <- s:
	default:
	}
}
