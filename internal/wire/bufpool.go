package wire

import "sync"

// maxPooledBuf bounds the capacity of buffers returned to the pool: no
// pool slot should pin more than a megabyte of scratch. Nothing on the
// bulk path grows a pooled buffer that far any more — a large []byte is
// borrowed around the pickle and the frame (Encoder.Borrow), sent from a
// chunk-sized frame, and assembled at the far end in a slab that is never
// pooled — so the bound now only catches a large value that is not a
// []byte, whose pickle still has to be written somewhere.
const maxPooledBuf = 1 << 20

// bufPool recycles scratch buffers for frame assembly and message
// encoding. GetBuf/PutBuf expose it so the transport session layer and
// the runtime share one pool for their per-frame buffers instead of
// allocating per call. A buffer from here is only ever scratch: whoever
// decodes out of one copies what it keeps, because the next GetBuf may
// hand the same memory to anyone.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// GetBuf returns a pooled scratch buffer with zero length and nonzero
// capacity. Return it with PutBuf when the bytes are no longer referenced.
func GetBuf() *[]byte {
	bp := bufPool.Get().(*[]byte)
	*bp = (*bp)[:0]
	return bp
}

// PutBuf returns a buffer obtained from GetBuf (or grown from one) to the
// pool. Oversized buffers are dropped rather than pooled. The caller must
// not touch *bp afterwards.
func PutBuf(bp *[]byte) {
	if bp == nil || cap(*bp) > maxPooledBuf {
		return
	}
	bufPool.Put(bp)
}
