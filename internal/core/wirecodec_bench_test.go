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

// benchHistUnpacked models one node's histogram upload at the repo's
// working scale (a 3-feature passive party, MaxBins=8, the root layer)
// without packing: every bin occupied, the header followed by 24 frames of
// one 32-byte mock ciphertext each.
func benchHistUnpacked() []any {
	var cts [][]byte
	for f := 0; f < 3; f++ {
		for b := 0; b < 8; b++ {
			cts = append(cts, benchCiphertext(32, byte(f*8+b)))
		}
	}
	return benchNode(cts)
}

// benchHistPacked is the same node under histogram packing: its 24 slots
// ride in six 64-byte packed ciphertexts, one frame each.
func benchHistPacked() []any {
	var cts [][]byte
	for f := 0; f < 3; f++ {
		cts = append(cts, benchCiphertext(64, byte(f)), benchCiphertext(64, byte(f+1)))
	}
	return benchNode(cts)
}

// benchNode is a fully occupied 3-feature node's frames: its header, then
// one frame per ciphertext.
func benchNode(cts [][]byte) []any {
	nh := NodeHist{Node: 1, Packed: true, Feats: make([]FeatHist, 3)}
	for f := range nh.Feats {
		nh.Feats[f] = FeatHist{NumBins: 8, Occupied: []byte{0xFF}}
	}
	frames := []any{MsgHistograms{Tree: 1, Layer: 2, Nodes: []NodeHist{nh}}}
	for c, ct := range cts {
		frames = append(frames, MsgHistCt{Tree: 1, Node: 1, Index: c, Ct: ct})
	}
	return frames
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
// classes that dominate a training run: one node's histogram frames, and
// one gradient batch. The "bytes/msg" metric is the serialized size on the
// wire, summed over the frames of one node.
func BenchmarkLinkCodec(b *testing.B) {
	msgs := []struct {
		name   string
		frames []any
	}{
		{"MsgHistograms-unpacked", benchHistUnpacked()},
		{"MsgHistograms-packed", benchHistPacked()},
		{"MsgPairBatch", []any{benchPairBatch()}},
	}
	for _, tc := range msgs {
		b.Run(tc.name, func(b *testing.B) {
			size := 0
			for _, m := range tc.frames {
				payload, err := wire.Binary.Encode(m)
				if err != nil {
					b.Fatal(err)
				}
				size += len(payload)
				wire.PutBuf(payload)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, m := range tc.frames {
					p, err := wire.Binary.Encode(m)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := wire.Binary.Decode(p); err != nil {
						b.Fatal(err)
					}
					wire.PutBuf(p)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(size), "bytes/msg")
		})
	}
}
