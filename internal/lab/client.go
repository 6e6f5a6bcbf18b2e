package lab

import (
	"bufio"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/ga"
	"repro/internal/isa"
)

// Options tunes the client's resilience envelope. The zero value of any
// field selects the default noted on it.
type Options struct {
	// DialTimeout bounds each connection attempt (default 5s).
	DialTimeout time.Duration
	// IOTimeout is the per-command read/write deadline (default 10s). A
	// command whose reply does not arrive in time is treated as a
	// transport fault: the connection is dropped and the command retried
	// on a fresh one.
	IOTimeout time.Duration
	// MaxAttempts bounds how often one command is tried, the first attempt
	// included (default 4). Target ERR replies are never retried.
	MaxAttempts int
	// BackoffBase and BackoffMax shape the exponential backoff slept
	// before each reconnect: base<<(attempt-1), capped at max (defaults
	// 50ms and 2s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
}

func (o Options) withDefaults() Options {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.IOTimeout <= 0 {
		o.IOTimeout = 10 * time.Second
	}
	if o.MaxAttempts < 1 {
		o.MaxAttempts = 4
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 50 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 2 * time.Second
	}
	return o
}

// sessionState is everything the client has established on the target that
// a fresh connection would lack: domain setpoints and the loaded/running
// workload. It is replayed verbatim after every reconnect, so a mid-cycle
// connection drop (say between RUN and MEASURE) is invisible to callers.
type sessionState struct {
	sp   *setpoints
	load *loadState
	run  bool
}

// setpoints records the domain setpoints (SETCLOCK/SETVOLTS/SETCORES, less
// any RESET) established on the target. Setpoints are domain state on the
// target, shared by every session, so a Pool hands one record to all its
// clients: a RESET through one session then clears what another would
// replay after a reconnect. The mutex is held across a setpoint command's
// exchange and record and across a replay, so a replay observes each
// setpoint change entirely before or entirely after it reaches the target.
type setpoints struct {
	mu     sync.Mutex
	clocks map[string]float64
	volts  map[string]float64
	cores  map[string]int
}

func newSetpoints() *setpoints {
	return &setpoints{
		clocks: make(map[string]float64),
		volts:  make(map[string]float64),
		cores:  make(map[string]int),
	}
}

type loadState struct {
	domain string
	cores  int
	text   string // formatted program body
	lines  int
}

// Client is the workstation side: it drives a remote lab daemon over TCP
// and exposes the measurement loop the GA needs. Every command runs under
// Options.IOTimeout; transport faults trigger reconnect + state replay +
// retry with exponential backoff. A Client serves one goroutine at a time;
// use Pool for concurrent evaluation.
type Client struct {
	addr string
	opts Options

	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer

	state  sessionState
	stats  statsCollector
	closed bool
}

// Dial connects to a lab daemon with default resilience options and the
// given dial timeout (kept for compatibility; see DialOptions).
func Dial(addr string, timeout time.Duration) (*Client, error) {
	return DialOptions(addr, Options{DialTimeout: timeout})
}

// DialOptions connects to a lab daemon with explicit resilience options.
func DialOptions(addr string, opts Options) (*Client, error) {
	return dialShared(addr, opts, newSetpoints())
}

// dialShared connects a client that records its setpoints in sp.
func dialShared(addr string, opts Options, sp *setpoints) (*Client, error) {
	c := &Client{
		addr:  addr,
		opts:  opts.withDefaults(),
		state: sessionState{sp: sp},
	}
	if err := c.connect(false); err != nil {
		return nil, err
	}
	return c, nil
}

// connect establishes (or re-establishes) the TCP session.
func (c *Client) connect(reconnect bool) error {
	conn, err := net.DialTimeout("tcp", c.addr, c.opts.DialTimeout)
	if err != nil {
		return &transportError{op: "dialing " + c.addr, err: err}
	}
	c.conn = conn
	c.r = bufio.NewReader(conn)
	c.w = bufio.NewWriter(conn)
	c.stats.dial(reconnect)
	return nil
}

// dropConn abandons the current connection after a transport fault.
func (c *Client) dropConn() {
	if c.conn != nil {
		_ = c.conn.Close()
		c.conn = nil
	}
}

// Close ends the session politely — QUIT is sent and its reply read, so
// the daemon sees an orderly teardown rather than a reset — and closes the
// connection. Safe to call on an already-broken session.
func (c *Client) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	if c.conn == nil {
		return nil
	}
	start := time.Now()
	_, err := c.exchange(command{verb: "QUIT", line: "QUIT"})
	c.stats.done("QUIT", time.Since(start), err != nil)
	cerr := c.conn.Close()
	c.conn = nil
	if err != nil {
		return err
	}
	return cerr
}

// Stats returns a snapshot of the client's transport counters.
func (c *Client) Stats() Stats { return c.stats.snapshot() }

// command is one protocol exchange: a request line, an optional body (the
// LOAD program text), a payload parser run on the OK reply, and a recorder
// that captures the session-state effect of a successful execution
// (record for the per-session workload slot, setpoint for the shared
// setpoint record — see exchangeSetpoint).
type command struct {
	verb     string
	line     string
	body     string
	parse    func(payload string) error
	record   func(st *sessionState)
	setpoint func(sp *setpoints)
}

// do runs one command through the resilience loop: attempt, classify,
// back off, reconnect (replaying session state), retry. Target ERR
// replies return immediately; only stream-integrity faults are retried.
func (c *Client) do(cmd command) error {
	if c.closed {
		return ErrClosed
	}
	start := time.Now()
	err := c.attemptLoop(cmd)
	c.stats.done(cmd.verb, time.Since(start), err != nil)
	return err
}

func (c *Client) attemptLoop(cmd command) error {
	var lastErr error
	for attempt := 0; attempt < c.opts.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.stats.retry(cmd.verb)
			c.sleepBackoff(attempt)
		}
		if c.conn == nil {
			if err := c.reconnect(); err != nil {
				if IsTargetError(err) {
					return err // replay rejected by the target: not transient
				}
				lastErr = err
				continue
			}
		}
		var payload string
		var err error
		if cmd.setpoint != nil {
			payload, err = c.exchangeSetpoint(cmd)
		} else {
			payload, err = c.exchange(cmd)
		}
		if err == nil {
			if cmd.parse != nil {
				if perr := cmd.parse(payload); perr != nil {
					// An OK reply whose payload does not parse means the
					// stream is desynced or corrupted: transport fault.
					lastErr = &transportError{op: cmd.verb, err: perr}
					c.dropConn()
					continue
				}
			}
			if cmd.record != nil {
				cmd.record(&c.state)
			}
			return nil
		}
		if IsTargetError(err) {
			return err
		}
		lastErr = err
		c.dropConn()
	}
	return fmt.Errorf("lab: %s failed after %d attempt(s): %w",
		cmd.verb, c.opts.MaxAttempts, lastErr)
}

func (c *Client) sleepBackoff(attempt int) {
	d := c.opts.BackoffBase << uint(attempt-1)
	if d > c.opts.BackoffMax || d <= 0 {
		d = c.opts.BackoffMax
	}
	time.Sleep(d)
}

// exchange performs one raw request/reply round trip under the I/O
// deadline. It returns a *TargetError for ERR replies and a transport
// error for anything else that goes wrong.
func (c *Client) exchange(cmd command) (string, error) {
	if c.conn == nil {
		return "", &transportError{op: cmd.verb, err: fmt.Errorf("no connection")}
	}
	_ = c.conn.SetDeadline(time.Now().Add(c.opts.IOTimeout))
	defer func() { _ = c.conn.SetDeadline(time.Time{}) }()
	if _, err := c.w.WriteString(cmd.line + "\n"); err != nil {
		return "", &transportError{op: cmd.verb + " send", err: err}
	}
	if cmd.body != "" {
		if _, err := c.w.WriteString(cmd.body); err != nil {
			return "", &transportError{op: cmd.verb + " send body", err: err}
		}
	}
	if err := c.w.Flush(); err != nil {
		return "", &transportError{op: cmd.verb + " send", err: err}
	}
	line, err := readLineN(c.r, maxReplyLen)
	if err != nil {
		return "", &transportError{op: cmd.verb + " receive", err: err}
	}
	ok, payload, err := parseReply(line)
	if err != nil {
		return "", &transportError{op: cmd.verb + " receive", err: err}
	}
	if !ok {
		return "", &TargetError{Msg: payload}
	}
	return payload, nil
}

// exchangeSetpoint is exchange for a setpoint command: the exchange and,
// on success, the record update both run under the setpoint record's lock.
func (c *Client) exchangeSetpoint(cmd command) (string, error) {
	sp := c.state.sp
	sp.mu.Lock()
	defer sp.mu.Unlock()
	payload, err := c.exchange(cmd)
	if err == nil {
		cmd.setpoint(sp)
	}
	return payload, err
}

// reconnect re-dials and replays the recorded session state so the fresh
// connection is indistinguishable from the broken one: per-domain
// SETCORES/SETCLOCK/SETVOLTS, then LOAD, then RUN if a workload was
// running.
func (c *Client) reconnect() error {
	if err := c.connect(true); err != nil {
		return err
	}
	if err := c.replay(); err != nil {
		c.dropConn()
		return err
	}
	return nil
}

func (c *Client) replay() error {
	st := &c.state
	sp := st.sp
	sp.mu.Lock()
	if len(sp.cores) == 0 && len(sp.clocks) == 0 && len(sp.volts) == 0 &&
		st.load == nil {
		sp.mu.Unlock()
		return nil
	}
	c.stats.replay()
	err := c.replaySetpointsLocked()
	sp.mu.Unlock()
	if err != nil {
		return err
	}
	if st.load != nil {
		if _, err := c.exchange(command{
			verb: "LOAD",
			line: fmt.Sprintf("LOAD %s %d %d", st.load.domain, st.load.cores, st.load.lines),
			body: st.load.text,
		}); err != nil {
			return err
		}
		if st.run {
			if _, err := c.exchange(command{verb: "RUN", line: "RUN"}); err != nil {
				return err
			}
		}
	}
	return nil
}

// replaySetpointsLocked re-sends the recorded setpoints; the caller holds
// the record's lock.
func (c *Client) replaySetpointsLocked() error {
	sp := c.state.sp
	for _, dom := range sortedKeys(sp.cores) {
		if _, err := c.exchange(command{verb: "SETCORES",
			line: fmt.Sprintf("SETCORES %s %d", dom, sp.cores[dom])}); err != nil {
			return err
		}
	}
	for _, dom := range sortedKeys(sp.clocks) {
		if _, err := c.exchange(command{verb: "SETCLOCK",
			line: fmt.Sprintf("SETCLOCK %s %g", dom, sp.clocks[dom])}); err != nil {
			return err
		}
	}
	for _, dom := range sortedKeys(sp.volts) {
		if _, err := c.exchange(command{verb: "SETVOLTS",
			line: fmt.Sprintf("SETVOLTS %s %g", dom, sp.volts[dom])}); err != nil {
			return err
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Info returns the target's platform name and domain inventory.
func (c *Client) Info() (string, []string, error) {
	var name string
	var domains []string
	err := c.do(command{verb: "INFO", line: "INFO", parse: func(payload string) error {
		fields := strings.Fields(payload)
		if len(fields) < 1 {
			return fmt.Errorf("malformed INFO reply %q", payload)
		}
		name, domains = fields[0], fields[1:]
		return nil
	}})
	return name, domains, err
}

// Load ships an individual's source to the target, which assembles it.
func (c *Client) Load(domain string, cores int, pool *isa.Pool, seq []isa.Inst) error {
	text := isa.FormatProgram(pool, seq)
	lines := strings.Count(text, "\n")
	return c.do(command{
		verb: "LOAD",
		line: fmt.Sprintf("LOAD %s %d %d", domain, cores, lines),
		body: text,
		record: func(st *sessionState) {
			st.load = &loadState{domain: domain, cores: cores, text: text, lines: lines}
			st.run = false
		},
	})
}

// Run starts the loaded workload on the target.
func (c *Client) Run() error {
	return c.do(command{verb: "RUN", line: "RUN",
		record: func(st *sessionState) { st.run = true }})
}

// Stop terminates the running workload.
func (c *Client) Stop() error {
	return c.do(command{verb: "STOP", line: "STOP",
		record: func(st *sessionState) { st.run = false }})
}

// RemoteMeasurement is the target's analyzer reading.
type RemoteMeasurement struct {
	PeakDBm  float64
	PeakHz   float64
	StdevDBm float64
}

// Measure asks the target bench for an averaged EM peak measurement.
func (c *Client) Measure(samples int) (*RemoteMeasurement, error) {
	m := &RemoteMeasurement{}
	err := c.do(command{
		verb: "MEASURE",
		line: fmt.Sprintf("MEASURE %d", samples),
		parse: func(payload string) error {
			fields := strings.Fields(payload)
			var err error
			if m.PeakDBm, err = floatField(fields, 0, "peak dBm"); err != nil {
				return err
			}
			if m.PeakHz, err = floatField(fields, 1, "peak Hz"); err != nil {
				return err
			}
			if m.StdevDBm, err = floatField(fields, 2, "stdev"); err != nil {
				return err
			}
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// SetClock adjusts the target's DVFS point.
func (c *Client) SetClock(domain string, hz float64) error {
	return c.do(command{
		verb:     "SETCLOCK",
		line:     fmt.Sprintf("SETCLOCK %s %g", domain, hz),
		setpoint: func(sp *setpoints) { sp.clocks[domain] = hz },
	})
}

// SetVolts adjusts the target's supply setpoint.
func (c *Client) SetVolts(domain string, v float64) error {
	return c.do(command{
		verb:     "SETVOLTS",
		line:     fmt.Sprintf("SETVOLTS %s %g", domain, v),
		setpoint: func(sp *setpoints) { sp.volts[domain] = v },
	})
}

// SetCores power-gates cores on the target.
func (c *Client) SetCores(domain string, n int) error {
	return c.do(command{
		verb:     "SETCORES",
		line:     fmt.Sprintf("SETCORES %s %d", domain, n),
		setpoint: func(sp *setpoints) { sp.cores[domain] = n },
	})
}

// Reset restores a domain to nominal state.
func (c *Client) Reset(domain string) error {
	return c.do(command{
		verb: "RESET",
		line: "RESET " + domain,
		setpoint: func(sp *setpoints) {
			delete(sp.clocks, domain)
			delete(sp.volts, domain)
			delete(sp.cores, domain)
		},
	})
}

// measureOn runs the paper's per-individual loop — load, run, measure,
// stop — on one client. Shared by Client.Measurer and Pool.Measurer.
func measureOn(c *Client, domain string, cores, samples int, pool *isa.Pool, seq []isa.Inst) (float64, float64, error) {
	if err := c.Load(domain, cores, pool, seq); err != nil {
		return 0, 0, err
	}
	if err := c.Run(); err != nil {
		return 0, 0, err
	}
	m, err := c.Measure(samples)
	if err != nil {
		_ = c.Stop()
		return 0, 0, err
	}
	if err := c.Stop(); err != nil {
		return 0, 0, err
	}
	return m.PeakDBm, m.PeakHz, nil
}

// Measurer returns a GA fitness function that evaluates each individual on
// the remote target: load, run, measure, stop — the paper's per-individual
// loop. For parallel evaluation use Pool.Measurer.
func (c *Client) Measurer(domain string, cores, samples int, pool *isa.Pool) ga.Measurer {
	return ga.MeasurerFunc(func(seq []isa.Inst) (float64, float64, error) {
		return measureOn(c, domain, cores, samples, pool, seq)
	})
}
