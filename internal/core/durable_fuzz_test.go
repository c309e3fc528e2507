package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"octocache/internal/durable"
	"octocache/internal/geom"
	"octocache/internal/raytrace"
	"octocache/internal/voxel"
)

// FuzzDurableOpStream drives a durable pipeline through an arbitrary
// interleaving of observation batches and checkpoints, crashes it by
// truncating the log at a fuzz-chosen byte offset, recovers, and asserts
// the recovered map is bit-identical to a non-durable pipeline that
// ingested exactly the batches the recovered sequence number says
// survived. Run differentially over both backends: the WAL frames are
// backend-independent, so the same op stream must recover to the same
// serialized bytes on each.
func FuzzDurableOpStream(f *testing.F) {
	f.Add([]byte{0x00, 0x41, 0x82, 0x80, 0x13, 0x54, 0x80, 0xc1, 0x22, 0x80, 0xff})
	f.Add([]byte{0xc1, 0x01, 0x02, 0x80, 0x03, 0xc1, 0x80, 0x10})
	f.Add(bytes.Repeat([]byte{0x07, 0x80}, 25))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		// The first two bytes pick the crash offset; the rest are ops.
		offSel := int(data[0]) | int(data[1])<<8
		ops := data[2:]
		if len(ops) > 160 {
			ops = ops[:160]
		}

		center, ok := voxel.CoordToKey(geom.V(0.05, 0.05, 0.05), 0.1, 8)
		if !ok {
			t.Fatal("center key out of range")
		}

		// Decode the op stream once: a shared schedule of batches and
		// checkpoint points that both backends execute identically.
		var batches [][]raytrace.Voxel
		var checkpointAfter []bool // checkpointAfter[i]: Checkpoint() after batch i
		var cur []raytrace.Voxel
		flush := func(ckpt bool) {
			if len(cur) == 0 {
				return
			}
			batches = append(batches, cur)
			checkpointAfter = append(checkpointAfter, ckpt)
			cur = nil
		}
		for _, b := range ops {
			// 2 op bits, 6 bits of key/value salt.
			k := voxel.Key{
				X: center.X + uint16(b&0x3),
				Y: center.Y + uint16(b>>2&0x3),
				Z: center.Z + uint16(b>>4&0x3),
			}
			switch b >> 6 {
			case 0:
				cur = append(cur, raytrace.Voxel{Key: k, Occupied: true})
			case 1:
				cur = append(cur, raytrace.Voxel{Key: k, Occupied: false})
			case 2:
				flush(false)
			case 3:
				flush(b&1 == 1)
			}
		}
		flush(false)
		if len(batches) == 0 {
			return
		}

		var prevBytes []byte
		var prevSeq uint64
		for bi, backend := range []BackendKind{BackendOctree, BackendGrid} {
			dir := t.TempDir()
			cfg := testConfig()
			cfg.Backend = backend
			cfg.Durable = Durable{Dir: dir}
			pipe, err := NewEngine(KindSerial, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i, batch := range batches {
				if err := pipe.ApplyTraced(batch); err != nil {
					t.Fatalf("batch %d: %v", i, err)
				}
				if checkpointAfter[i] {
					if err := pipe.Checkpoint(); err != nil {
						t.Fatalf("checkpoint after batch %d: %v", i, err)
					}
				}
			}

			// Crash: copy the disk image before Close (Close would commit a
			// final snapshot), then cut the log at the fuzz-chosen offset.
			logRaw, err := os.ReadFile(filepath.Join(dir, durable.LogName("map")))
			if err != nil {
				t.Fatal(err)
			}
			snapRaw, snapErr := os.ReadFile(filepath.Join(dir, "map.snap"))
			if err := pipe.Close(); err != nil {
				t.Fatal(err)
			}
			off := 8 + offSel%(len(logRaw)-8+1)
			crash := t.TempDir()
			if err := os.WriteFile(filepath.Join(crash, durable.LogName("map")), logRaw[:off], 0o644); err != nil {
				t.Fatal(err)
			}
			if snapErr == nil {
				if err := os.WriteFile(filepath.Join(crash, "map.snap"), snapRaw, 0o644); err != nil {
					t.Fatal(err)
				}
			}

			rcfg := cfg
			rcfg.Durable.Dir = crash
			rcfg.DurableRecover = true
			rec, err := NewEngine(KindSerial, rcfg)
			if err != nil {
				t.Fatalf("recover at offset %d: %v", off, err)
			}
			seq := rec.DurableStats().Seq
			if seq > uint64(len(batches)) {
				t.Fatalf("recovered seq %d beyond the %d admitted batches", seq, len(batches))
			}
			var got bytes.Buffer
			if _, err := rec.WriteTo(&got); err != nil {
				t.Fatal(err)
			}
			if err := rec.Close(); err != nil {
				t.Fatal(err)
			}

			// Reference: a non-durable pipeline ingesting the surviving
			// prefix through the same admit path.
			refCfg := testConfig()
			refCfg.Backend = backend
			ref, err := NewEngine(KindSerial, refCfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, batch := range batches[:seq] {
				if err := ref.ApplyTraced(batch); err != nil {
					t.Fatal(err)
				}
			}
			var want bytes.Buffer
			if _, err := ref.WriteTo(&want); err != nil {
				t.Fatal(err)
			}
			ref.Close()

			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("backend %v offset %d: recovery diverged from %d-batch prefix replay", backend, off, seq)
			}
			// Differential leg: identical batches produce identical WAL
			// frames, so both backends cut at the same offset recover the
			// same prefix and — serialization being backend-invariant — the
			// same bytes.
			if bi == 1 {
				if seq != prevSeq {
					t.Fatalf("backends disagree on surviving prefix: %d vs %d", prevSeq, seq)
				}
				if !bytes.Equal(got.Bytes(), prevBytes) {
					t.Fatal("backends recovered different maps from the same op stream")
				}
			}
			prevBytes = got.Bytes()
			prevSeq = seq
		}
	})
}
