package fleet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"
)

// Checkpoint is the fleet coordinator's durable campaign journal: one JSON
// line per completed shard, keyed by content. A record names the campaign
// (a 64-bit hash of everything the result depends on except the item
// itself: kind, platform, domain, operating point, seeds, sample depth)
// and the item (the same 64-bit content key the spectra cache and batch
// memo already trust), so a resumed coordinator replays a hit only when
// both hashes match — a changed operating point or a mutated workload
// misses cleanly and re-measures.
//
// The journal is append-only. A torn final line (coordinator killed
// mid-write) is detected by JSON validity, dropped, and cut off on open so
// the next record does not land on the fragment; every intact line stays
// usable. Because items are keyed by content rather than position, a GA
// elite that survives into the next generation replays for free, and two
// campaigns over overlapping grids share hits.
type Checkpoint struct {
	mu   sync.Mutex
	f    *os.File
	w    *bufio.Writer
	done map[journalKey]json.RawMessage

	hits, misses, dropped uint64
}

type journalKey struct {
	campaign uint64
	item     uint64
}

type journalRecord struct {
	Campaign string          `json:"campaign"`
	Item     string          `json:"item"`
	Result   json.RawMessage `json:"result"`
}

// OpenCheckpoint opens (creating if needed) a campaign journal and loads
// every intact record into the in-memory index. A final line without its
// newline (coordinator killed mid-write) is repaired before the first
// append: an intact record gets its terminator, anything else is
// truncated away, so the next Add starts on a fresh line.
func OpenCheckpoint(path string) (*Checkpoint, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("fleet: open checkpoint: %w", err)
	}
	c := &Checkpoint{f: f, done: make(map[journalKey]json.RawMessage)}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	sc.Split(scanTerminatedLines)
	var end int64 // bytes scanned so far
	tail, tailOK := int64(-1), false
	for sc.Scan() {
		line := sc.Bytes()
		end += int64(len(line))
		terminated := line[len(line)-1] == '\n'
		ok := c.load(line)
		if !terminated {
			tail, tailOK = end-int64(len(line)), ok
		}
	}
	if err := sc.Err(); err != nil {
		f.Close()
		return nil, fmt.Errorf("fleet: read checkpoint: %w", err)
	}
	if tail >= 0 {
		if err := repairTail(f, tail, end, tailOK); err != nil {
			f.Close()
			return nil, fmt.Errorf("fleet: repair checkpoint tail: %w", err)
		}
	}
	c.w = bufio.NewWriter(f)
	return c, nil
}

// scanTerminatedLines is bufio.ScanLines keeping each line's '\n', so the
// caller can tell a torn final line from a complete one and count bytes.
func scanTerminatedLines(data []byte, atEOF bool) (advance int, token []byte, err error) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return i + 1, data[:i+1], nil
	}
	if atEOF && len(data) > 0 {
		return len(data), data, nil
	}
	return 0, nil, nil
}

// load indexes one journal line, reporting whether it held a record. Blank
// lines are skipped; torn or corrupt lines count as dropped (re-measuring
// covers them). Keys must be plain hexadecimal, as Add writes them.
func (c *Checkpoint) load(line []byte) bool {
	if len(bytes.TrimSpace(line)) == 0 {
		return false
	}
	var rec journalRecord
	if err := json.Unmarshal(line, &rec); err != nil {
		c.dropped++
		return false
	}
	campaign, err1 := strconv.ParseUint(rec.Campaign, 16, 64)
	item, err2 := strconv.ParseUint(rec.Item, 16, 64)
	if err1 != nil || err2 != nil {
		c.dropped++
		return false
	}
	c.done[journalKey{campaign, item}] = append(json.RawMessage(nil), rec.Result...)
	return true
}

// repairTail fixes an unterminated final line spanning [start, end) of f:
// an intact record is terminated in place, anything else is truncated. It
// leaves the file offset at the new end, where appends continue.
func repairTail(f *os.File, start, end int64, intact bool) error {
	if intact {
		_, err := f.WriteAt([]byte{'\n'}, end)
		if err == nil {
			_, err = f.Seek(end+1, io.SeekStart)
		}
		return err
	}
	if err := f.Truncate(start); err != nil {
		return err
	}
	_, err := f.Seek(start, io.SeekStart)
	return err
}

// Lookup returns the stored result for (campaign, item) if present,
// unmarshalled into out.
func (c *Checkpoint) Lookup(campaign, item uint64, out any) bool {
	c.mu.Lock()
	raw, ok := c.done[journalKey{campaign, item}]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	c.mu.Unlock()
	if !ok {
		return false
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return false // unreadable payload: treat as a miss
	}
	return true
}

// Add journals one completed shard and flushes it to disk, so a coordinator
// killed right after sees the record on restart.
func (c *Checkpoint) Add(campaign, item uint64, result any) error {
	raw, err := json.Marshal(result)
	if err != nil {
		return fmt.Errorf("fleet: checkpoint result: %w", err)
	}
	rec := journalRecord{
		Campaign: fmt.Sprintf("%016x", campaign),
		Item:     fmt.Sprintf("%016x", item),
		Result:   raw,
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("fleet: checkpoint record: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	key := journalKey{campaign, item}
	if _, ok := c.done[key]; ok {
		return nil // already journaled (speculative duplicate finished twice)
	}
	if _, err := c.w.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("fleet: checkpoint write: %w", err)
	}
	if err := c.w.Flush(); err != nil {
		return fmt.Errorf("fleet: checkpoint flush: %w", err)
	}
	c.done[key] = raw
	return nil
}

// Len reports the number of journaled shards.
func (c *Checkpoint) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.done)
}

// Stats returns hit/miss/dropped counters for -v output.
func (c *Checkpoint) Stats() (hits, misses, dropped uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.dropped
}

// Close flushes and releases the journal file.
func (c *Checkpoint) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return nil
	}
	ferr := c.w.Flush()
	cerr := c.f.Close()
	c.f = nil
	if ferr != nil {
		return ferr
	}
	return cerr
}
