package spc

import (
	"testing"
	"time"

	"aces/internal/ring"
	"aces/internal/sdo"
)

// BenchmarkBufferPair is one TryPush plus one Pop on a primary slot's
// buffer (multi-producer, single-consumer, the chain's 32,768 SDOs), on
// one goroutine: the uncontended cost of a hop's queue as the PE loop
// pays it. The origin carries a monotonic reading, as every SDO a source
// stamps does.
func BenchmarkBufferPair(b *testing.B) {
	for _, bc := range []struct {
		name    string
		payload any
	}{
		{"header", nil},
		{"payload512", make([]byte, 512)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			buf := newBufferMode(32768, ring.SingleConsumer)
			s := sdo.SDO{Stream: 1, Seq: 7, Origin: time.Now(), Bytes: 512, Hops: 2, Trace: 3, Key: 5, Payload: bc.payload}
			ctx := neverDone{}
			buf.TryPush(s) // install the origin's clock anchor and, with a payload, the side array
			buf.Pop(ctx)
			var sink int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Seq = uint64(i)
				buf.TryPush(s)
				v, _ := buf.Pop(ctx)
				sink += v.Hops
			}
			if sink != 2*b.N {
				b.Fatalf("hops sum %d, want %d", sink, 2*b.N)
			}
		})
	}
}
