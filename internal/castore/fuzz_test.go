package castore

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzCASFrame feeds arbitrary bytes to the store's two parsers of
// outside input:
//
//   - as an entry file: Get must never panic, and either serve a hit whose
//     payload re-frames to exactly the file's bytes, or miss — leaving the
//     file in place only when it is a well-formed frame of another codec
//     version, and otherwise quarantining it (moved aside and counted);
//   - as a codec payload: every read must terminate without panicking, the
//     first error must stick (later reads return zero values and the same
//     error), and Finish must report that error, trailing bytes or nil.
func FuzzCASFrame(f *testing.F) {
	const (
		ns      = "fuzz"
		version = 3
		key     = uint64(0x0123456789abcdef)
	)
	enc := NewEnc(64)
	enc.Uint64(7)
	enc.Int(-2)
	enc.Bool(true)
	enc.Float64(0.25)
	enc.String("cas")
	enc.Floats([]float64{1, 2})
	enc.Int64s([]int64{-1})
	enc.Ints([]int{4, 5})
	valid := encodeFrame(version, key, enc.Bytes())
	f.Add(valid)
	for _, n := range []int{0, 1, headerLen / 2, headerLen, headerLen + 5, len(valid) - crcLen, len(valid) - 1} {
		f.Add(append([]byte(nil), valid[:n]...))
	}
	garbled := append([]byte(nil), valid...)
	garbled[headerLen] ^= 0x01 // payload no longer matches its checksum
	f.Add(garbled)
	f.Add(encodeFrame(version+1, key, enc.Bytes())) // stale codec version
	f.Add(encodeFrame(version, key+1, enc.Bytes())) // filed under the wrong key
	f.Add(encodeFrame(version, key, nil))

	s, err := Open(f.TempDir(), Options{MaxBytes: -1})
	if err != nil {
		f.Fatal(err)
	}
	path := s.entryPath(ns, key)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		corrupt := s.Stats().Corrupt
		payload, ok := s.Get(ns, version, key)
		_, statErr := os.Stat(path)
		present := statErr == nil
		switch {
		case ok:
			if !bytes.Equal(encodeFrame(version, key, payload), data) {
				t.Fatalf("hit served %d payload bytes that do not re-frame to the %d-byte entry", len(payload), len(data))
			}
		case present:
			if len(data) < headerLen+crcLen {
				t.Fatalf("%d-byte entry missed but was not quarantined", len(data))
			}
			v := uint16(data[4]) | uint16(data[5])<<8
			if v == version || !bytes.Equal(encodeFrame(v, key, data[headerLen:len(data)-crcLen]), data) {
				t.Fatal("a miss left an entry in place that is not a well-formed frame of another version")
			}
		default:
			if got := s.Stats().Corrupt; got != corrupt+1 {
				t.Fatalf("entry removed on a miss but corrupt counter went %d -> %d", corrupt, got)
			}
		}
		os.Remove(path)

		checkDecoder(t, data)
	})
}

// checkDecoder drives every Dec read kind over data in a fixed rotation
// until the decoder errors, then checks the error sticks.
func checkDecoder(t *testing.T, data []byte) {
	d := NewDec(data)
	reads := []func() bool{ // each reports whether it returned the zero value
		func() bool { return d.Uint64() == 0 },
		func() bool { return d.Int() == 0 },
		func() bool { return !d.Bool() },
		func() bool { return d.Float64() == 0 },
		func() bool { return d.String() == "" },
		func() bool { return d.Floats() == nil },
		func() bool { return d.Int64s() == nil },
		func() bool { return d.Ints() == nil },
	}
	// Every successful read consumes at least 8 bytes, so the rotation
	// reaches an error within len(data)/8+1 reads.
	for i := 0; d.Err() == nil; i++ {
		if i > len(data)/8+1 {
			t.Fatalf("decoder still reading after %d reads of %d bytes", i, len(data))
		}
		if err := d.Finish(); err != nil && err != ErrTrailing {
			t.Fatalf("Finish before any error = %v", err)
		}
		reads[i%len(reads)]()
	}
	first := d.Err()
	for round := 0; round < 2; round++ {
		for i, read := range reads {
			if !read() {
				t.Fatalf("read kind %d returned a value after error %v", i, first)
			}
			if d.Err() != first {
				t.Fatalf("error changed from %v to %v", first, d.Err())
			}
		}
	}
	if err := d.Finish(); err != first {
		t.Fatalf("Finish = %v after error %v", err, first)
	}
}
