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
// working scale (a 3-feature passive party, MaxBins=8, the root layer):
// one 32-byte mock ciphertext and one exponent per bin. At this message
// size gob's per-send type descriptor is a material fraction of the
// frame, which is exactly the overhead the binary codec retires.
func benchHistUnpacked() MsgHistograms {
	feats := make([]FeatHist, 3)
	for f := range feats {
		bins := make([][]byte, 8)
		exps := make([]int16, 8)
		for b := range bins {
			bins[b] = benchCiphertext(32, byte(f*8+b))
			exps[b] = 8
		}
		feats[f] = FeatHist{NumBins: 8, Bins: bins, BinExp: exps}
	}
	return MsgHistograms{Tree: 1, Layer: 2, Nodes: []NodeHist{{Node: 1, Feats: feats}}}
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
// classes that dominate a training run, under both codecs. The
// "bytes/msg" metric is the serialized frame size on the wire.
func BenchmarkLinkCodec(b *testing.B) {
	msgs := []struct {
		name string
		m    any
	}{
		{"MsgHistograms-unpacked", benchHistUnpacked()},
		{"MsgHistograms-packed", benchHistPacked()},
		{"MsgPairBatch", benchPairBatch()},
	}
	codecs := []wire.Codec{wire.Binary, wire.Gob}
	for _, tc := range msgs {
		for _, c := range codecs {
			b.Run(tc.name+"/"+c.Name(), func(b *testing.B) {
				payload, err := c.Encode(tc.m)
				if err != nil {
					b.Fatal(err)
				}
				size := len(payload)
				if c == wire.Binary {
					wire.PutBuf(payload)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p, err := c.Encode(tc.m)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := c.Decode(p); err != nil {
						b.Fatal(err)
					}
					if c == wire.Binary {
						wire.PutBuf(p)
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(size), "bytes/msg")
			})
		}
	}
}
