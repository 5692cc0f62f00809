package sim

// freeList recycles the objects of one type within one System: get hands
// out a returned object if there is one and a zero one otherwise, put takes
// an object back at the single point its lifetime ends. The lists belong to
// the System (no sync.Pool, no package state): concurrent Systems share
// nothing, and nothing outlives a run, which therefore allocates only its
// peak — warps and CTA contexts included. DESIGN.md "Object lifetimes" says,
// per type, where that point is and who may still hold a pointer after it:
// either nobody, or holders stamped with the object's life (a warp's gen).
//
// The taker re-initialises the object by assigning a whole struct literal,
// carrying over only backing storage (slices cut to length zero, a warp's
// register file and SIMT stack), callbacks bound to the object itself and a
// warp's gen.
type freeList[T any] struct{ free []*T }

func (f *freeList[T]) get() *T {
	if n := len(f.free); n > 0 {
		x := f.free[n-1]
		f.free = f.free[:n-1]
		return x
	}
	return new(T)
}

func (f *freeList[T]) put(x *T) { f.free = append(f.free, x) }
