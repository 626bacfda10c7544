package core

import (
	"testing"

	"vf2boost/internal/wire"
)

// benchCiphertext fabricates a deterministic mock-scheme ciphertext
// (256-bit mock keys marshal to 32 bytes; see he.Mock).
func benchCiphertext(n int, seed byte) []byte {
	c := make([]byte, n)
	for i := range c {
		c[i] = seed + byte(i)
	}
	return c
}

// benchHistUnpacked models one layer's histogram upload at the repo's
// working scale (a 3-feature passive party, MaxBins=8, the root layer)
// without packing: every bin occupied, each of the 24 slots its own
// 32-byte mock ciphertext.
func benchHistUnpacked() MsgHistograms {
	nh := NodeHist{Node: 1, Packed: true, Feats: make([]FeatHist, 3)}
	for f := range nh.Feats {
		nh.Feats[f] = FeatHist{NumBins: 8, Occupied: []byte{0xFF}}
		for b := 0; b < 8; b++ {
			nh.Cts = append(nh.Cts, benchCiphertext(32, byte(f*8+b)))
		}
	}
	return MsgHistograms{Tree: 1, Layer: 2, Nodes: []NodeHist{nh}}
}

// benchHistPacked is the same layer under histogram packing: the node's 24
// slots ride in six 64-byte packed ciphertexts, each feature adding its
// bin count and occupancy bitmap.
func benchHistPacked() MsgHistograms {
	nh := NodeHist{Node: 1, Packed: true, Feats: make([]FeatHist, 3)}
	for f := range nh.Feats {
		nh.Feats[f] = FeatHist{NumBins: 8, Occupied: []byte{0xFF}}
		nh.Cts = append(nh.Cts, benchCiphertext(64, byte(f)), benchCiphertext(64, byte(f+1)))
	}
	return MsgHistograms{Tree: 1, Layer: 2, Nodes: []NodeHist{nh}}
}

// benchPairBatch models one encrypted gradient batch: 100 rows of one
// 32-byte folded ciphertext and one exponent each.
func benchPairBatch() MsgPairBatch {
	cts := make([][]byte, 100)
	exps := make([]int16, 100)
	for i := range cts {
		cts[i] = benchCiphertext(32, byte(i))
		exps[i] = 8
	}
	return MsgPairBatch{Tree: 2, Start: 1000, Cts: cts, Exp: exps, Last: true}
}

// BenchmarkLinkCodec measures encode+decode round trips for the traffic
// classes that dominate a training run. The "bytes/msg" metric is the
// serialized frame size on the wire.
func BenchmarkLinkCodec(b *testing.B) {
	msgs := []struct {
		name string
		m    any
	}{
		{"MsgHistograms-unpacked", benchHistUnpacked()},
		{"MsgHistograms-packed", benchHistPacked()},
		{"MsgPairBatch", benchPairBatch()},
	}
	for _, tc := range msgs {
		b.Run(tc.name, func(b *testing.B) {
			payload, err := wire.Binary.Encode(tc.m)
			if err != nil {
				b.Fatal(err)
			}
			size := len(payload)
			wire.PutBuf(payload)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, err := wire.Binary.Encode(tc.m)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := wire.Binary.Decode(p); err != nil {
					b.Fatal(err)
				}
				wire.PutBuf(p)
			}
			b.StopTimer()
			b.ReportMetric(float64(size), "bytes/msg")
		})
	}
}
