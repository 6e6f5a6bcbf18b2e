package fleet_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/fleet"
)

func writeJournal(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func openCheckpoint(t *testing.T, path string) *fleet.Checkpoint {
	t.Helper()
	c, err := fleet.OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCheckpointAddAfterTornTail: a record journaled after resuming from a
// journal whose final line lacks its newline must survive the next resume —
// whether that line is a torn fragment (cut away on open) or an intact
// record (terminated on open, and kept).
func TestCheckpointAddAfterTornTail(t *testing.T) {
	intact := `{"campaign":"0000000000000001","item":"0000000000000003","result":{"x":2.5}}`
	for _, c := range []struct {
		name, tail string
		want       int
	}{
		{"torn", `{"campaign":"0000000000000001","item":"00000000000`, 2},
		{"intact", intact, 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "resume.ckpt")
			ck := openCheckpoint(t, path)
			if err := ck.Add(1, 2, map[string]float64{"x": 1.5}); err != nil {
				t.Fatal(err)
			}
			if err := ck.Close(); err != nil {
				t.Fatal(err)
			}
			fh, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fh.WriteString(c.tail); err != nil {
				t.Fatal(err)
			}
			fh.Close()

			ck = openCheckpoint(t, path)
			if err := ck.Add(1, 5, map[string]float64{"x": 4.5}); err != nil {
				t.Fatal(err)
			}
			if err := ck.Close(); err != nil {
				t.Fatal(err)
			}

			re := openCheckpoint(t, path)
			defer re.Close()
			if re.Len() != c.want {
				t.Fatalf("reloaded %d records, want %d", re.Len(), c.want)
			}
			if _, _, dropped := re.Stats(); dropped != 0 {
				t.Fatalf("dropped %d lines after the tail was repaired", dropped)
			}
			var out map[string]float64
			if !re.Lookup(1, 5, &out) || out["x"] != 4.5 {
				t.Fatal("record added after the torn tail did not replay")
			}
			if !re.Lookup(1, 2, &out) || out["x"] != 1.5 {
				t.Fatal("intact record did not replay")
			}
		})
	}
}

// TestCheckpointRejectsMalformedKeys: keys are parsed as plain hexadecimal
// in full, so trailing garbage drops the line instead of replaying it under
// the key's numeric prefix.
func TestCheckpointRejectsMalformedKeys(t *testing.T) {
	path := filepath.Join(t.TempDir(), "keys.ckpt")
	writeJournal(t, path, []byte(
		`{"campaign":"1zz","item":"0000000000000002","result":1}`+"\n"+
			`{"campaign":"0000000000000001","item":"2 ","result":2}`+"\n"+
			`{"campaign":"+1","item":"0000000000000002","result":3}`+"\n"+
			`{"campaign":"","item":"0000000000000002","result":4}`+"\n"+
			`{"campaign":"1","item":"3","result":5}`+"\n"))
	ck := openCheckpoint(t, path)
	defer ck.Close()
	var out int
	if ck.Lookup(1, 2, &out) {
		t.Fatalf("malformed key replayed as (1, 2) with result %d", out)
	}
	if !ck.Lookup(1, 3, &out) || out != 5 {
		t.Fatal("well-formed short hex key did not replay")
	}
	if _, _, dropped := ck.Stats(); dropped != 4 {
		t.Fatalf("dropped %d lines, want 4", dropped)
	}
}

type refRecord struct {
	Campaign string          `json:"campaign"`
	Item     string          `json:"item"`
	Result   json.RawMessage `json:"result"`
}

// FuzzCheckpointReplay feeds arbitrary bytes as a journal file. Opening
// must never panic or fail; the index must hold exactly the well-formed
// lines (later duplicates win), each replaying its own result; and a
// record added after open must survive a reopen next to all of them.
func FuzzCheckpointReplay(f *testing.F) {
	good := `{"campaign":"0000000000000001","item":"0000000000000002","result":{"x":1.5}}`
	f.Add([]byte(good + "\n"))
	f.Add([]byte(good + "\n" + good[:30]))
	f.Add([]byte(good))
	f.Add([]byte(good + "\r\n\n  \n" + `{"campaign":"1zz","item":"2","result":1}` + "\n"))
	f.Add([]byte(`{"campaign":"a","item":"b"}` + "\n" + `{"campaign":"a","item":"b","result":null}`))
	f.Add([]byte("not json\n{}\n[1,2]\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		want := map[[2]uint64]json.RawMessage{}
		for _, line := range bytes.Split(data, []byte{'\n'}) {
			var rec refRecord
			if len(bytes.TrimSpace(line)) == 0 || json.Unmarshal(line, &rec) != nil {
				continue
			}
			c, err1 := strconv.ParseUint(rec.Campaign, 16, 64)
			i, err2 := strconv.ParseUint(rec.Item, 16, 64)
			if err1 == nil && err2 == nil {
				want[[2]uint64{c, i}] = rec.Result
			}
		}
		check := func(ck *fleet.Checkpoint, extra int) {
			t.Helper()
			if ck.Len() != len(want)+extra {
				t.Fatalf("indexed %d records, want %d", ck.Len(), len(want)+extra)
			}
			for k, res := range want {
				if len(res) == 0 {
					continue // no result field: indexed, but nothing to replay
				}
				var got json.RawMessage
				if !ck.Lookup(k[0], k[1], &got) || !bytes.Equal(got, res) {
					t.Fatalf("key %x: replayed %q, want %q", k, got, res)
				}
			}
		}

		path := filepath.Join(t.TempDir(), "fuzz.ckpt")
		writeJournal(t, path, data)
		ck := openCheckpoint(t, path)
		check(ck, 0)
		fresh := [2]uint64{0xfeed, 0}
		for _, ok := want[fresh]; ok; _, ok = want[fresh] {
			fresh[1]++
		}
		if err := ck.Add(fresh[0], fresh[1], 42); err != nil {
			t.Fatal(err)
		}
		if err := ck.Close(); err != nil {
			t.Fatal(err)
		}

		re := openCheckpoint(t, path)
		defer re.Close()
		check(re, 1)
		var got int
		if !re.Lookup(fresh[0], fresh[1], &got) || got != 42 {
			t.Fatal("record added after open did not survive the reopen")
		}
	})
}
