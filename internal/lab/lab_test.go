package lab

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ga"
	"repro/internal/isa"
	"repro/internal/platform"
	"repro/internal/vmin"
	"repro/internal/workload"
)

// startServer launches a daemon on a loopback port and returns its address.
func startServer(t *testing.T) (string, *core.Bench) {
	t.Helper()
	p, err := platform.JunoR2()
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.NewBench(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	b.Samples = 3
	srv, err := NewServer(b)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), b
}

func dial(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(nil); err == nil {
		t.Fatal("nil bench accepted")
	}
}

func TestInfo(t *testing.T) {
	addr, b := startServer(t)
	c := dial(t, addr)
	name, domains, err := c.Info()
	if err != nil {
		t.Fatal(err)
	}
	if name != b.Platform.Name {
		t.Fatalf("platform name %q", name)
	}
	if len(domains) != 2 {
		t.Fatalf("domains %v", domains)
	}
}

func TestLoadRunMeasureStop(t *testing.T) {
	addr, b := startServer(t)
	c := dial(t, addr)
	d, _ := b.Platform.Domain(platform.DomainA72)
	pool := d.Spec.Pool()
	seq, err := workload.Probe().Build(pool)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Load(platform.DomainA72, 2, pool, seq); err != nil {
		t.Fatal(err)
	}
	// Measuring before RUN must fail, like a real bench with no binary up.
	if _, err := c.Measure(3); err == nil {
		t.Fatal("measure without run succeeded")
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	m, err := c.Measure(3)
	if err != nil {
		t.Fatal(err)
	}
	if m.PeakDBm > 0 || m.PeakDBm < -100 {
		t.Fatalf("implausible peak %v dBm", m.PeakDBm)
	}
	if m.PeakHz < 50e6 || m.PeakHz > 200e6 {
		t.Fatalf("peak frequency %v outside band", m.PeakHz)
	}
	if err := c.Stop(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Measure(3); err == nil {
		t.Fatal("measure after stop succeeded")
	}
}

func TestDomainControls(t *testing.T) {
	addr, b := startServer(t)
	c := dial(t, addr)
	d, _ := b.Platform.Domain(platform.DomainA72)

	if err := c.SetClock(platform.DomainA72, 600e6); err != nil {
		t.Fatal(err)
	}
	if d.ClockHz() != 600e6 {
		t.Fatalf("clock = %v", d.ClockHz())
	}
	if err := c.SetCores(platform.DomainA72, 1); err != nil {
		t.Fatal(err)
	}
	if d.PoweredCores() != 1 {
		t.Fatalf("cores = %d", d.PoweredCores())
	}
	if err := c.SetVolts(platform.DomainA72, 0.95); err != nil {
		t.Fatal(err)
	}
	if d.SupplyVolts() != 0.95 {
		t.Fatalf("volts = %v", d.SupplyVolts())
	}
	if err := c.Reset(platform.DomainA72); err != nil {
		t.Fatal(err)
	}
	if d.PoweredCores() != 2 || d.ClockHz() != d.Spec.MaxClockHz {
		t.Fatal("reset did not restore state")
	}
	// Errors surface as ERR replies, not dropped connections.
	if err := c.SetCores(platform.DomainA72, 99); err == nil {
		t.Fatal("bad core count accepted")
	}
	if err := c.SetClock("nope", 1e9); err == nil {
		t.Fatal("unknown domain accepted")
	}
	// The session stays usable after an error.
	if _, _, err := c.Info(); err != nil {
		t.Fatalf("session dead after error: %v", err)
	}
}

func TestRemoteSweep(t *testing.T) {
	addr, b := startServer(t)
	c := dial(t, addr)
	res, err := c.SweepFull(platform.DomainA72, 2, b.Samples)
	if err != nil {
		t.Fatal(err)
	}
	if res.ResonanceHz < 60e6 || res.ResonanceHz > 80e6 {
		t.Fatalf("remote sweep resonance %v", res.ResonanceHz)
	}
	if len(res.Points) < 10 || res.PeakDBm > 0 {
		t.Fatalf("sweep stats %v %d", res.PeakDBm, len(res.Points))
	}
}

func TestRemoteGA(t *testing.T) {
	addr, b := startServer(t)
	c := dial(t, addr)
	d, _ := b.Platform.Domain(platform.DomainA72)
	pool := d.Spec.Pool()
	cfg := ga.DefaultConfig(pool)
	cfg.PopulationSize = 8
	cfg.Generations = 4
	res, err := ga.Run(cfg, c.Measurer(platform.DomainA72, 2, 3, pool), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != 4 {
		t.Fatalf("history %d", len(res.History))
	}
	if res.Best.Fitness > 0 || res.Best.Fitness < -100 {
		t.Fatalf("best fitness %v dBm implausible", res.Best.Fitness)
	}
}

func TestProtocolErrors(t *testing.T) {
	addr, _ := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	send := func(line string) string {
		if err := writeLine(w, "%s", line); err != nil {
			t.Fatal(err)
		}
		reply, err := readLine(r)
		if err != nil {
			t.Fatal(err)
		}
		return reply
	}
	for _, cmd := range []string{
		"FROBNICATE",
		"LOAD onearg",
		"LOAD cortex-a72 2 -5",
		"RUN",          // nothing loaded
		"MEASURE 0",    // bad sample count
		"SWEEPFULL",    // missing args
		"SETCLOCK x",   // missing value
		"SETCORES a b", // non-numeric
		"RESET",        // missing domain
	} {
		if reply := send(cmd); !strings.HasPrefix(reply, "ERR") {
			t.Errorf("%q -> %q, want ERR", cmd, reply)
		}
	}
	if reply := send("QUIT"); !strings.HasPrefix(reply, "OK") {
		t.Errorf("QUIT -> %q", reply)
	}
}

func TestLoadRejectsBadProgram(t *testing.T) {
	addr, _ := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	if err := writeLine(w, "LOAD cortex-a72 2 1"); err != nil {
		t.Fatal(err)
	}
	if err := writeLine(w, "bogus instruction here"); err != nil {
		t.Fatal(err)
	}
	reply, err := readLine(r)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(reply, "ERR") {
		t.Fatalf("bad program accepted: %q", reply)
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", 200*time.Millisecond); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

func TestRemoteVmin(t *testing.T) {
	addr, b := startServer(t)
	c := dial(t, addr)
	// VMINFULL before anything is loaded must fail.
	if _, err := c.VminFull(1, 1); err == nil {
		t.Fatal("vmin without a loaded workload succeeded")
	}
	d, _ := b.Platform.Domain(platform.DomainA72)
	pool := d.Spec.Pool()
	seq, err := workload.Probe().Build(pool)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Load(platform.DomainA72, 2, pool, seq); err != nil {
		t.Fatal(err)
	}
	res, err := c.VminFull(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.VminV <= 0 || res.VminV >= d.Spec.PDN.VNominal {
		t.Fatalf("remote vmin %v", res.VminV)
	}
	if res.Outcome == vmin.Pass {
		t.Fatalf("outcome %v", res.Outcome)
	}
	if len(res.Runs) != 2 {
		t.Fatalf("%d per-run V_MINs for 2 repeats", len(res.Runs))
	}
	if _, err := c.VminFull(1, 0); err == nil {
		t.Fatal("0 repeats accepted")
	}
}

// Two workstations talking to the same daemon concurrently must not
// corrupt each other or the shared instruments (run under -race). Each
// session owns its own load/run slot, so both clients interleave full
// LOAD/RUN/MEASURE cycles on the SAME domain with DIFFERENT programs —
// and each must read back exactly the measurement its own program
// produces on a fault-free serial bench. A third client hammers domain
// setpoints and sweeps at the same time on the other domain.
func TestConcurrentClients(t *testing.T) {
	addr, b := startServer(t)
	d, err := b.Platform.Domain(platform.DomainA72)
	if err != nil {
		t.Fatal(err)
	}
	pool := d.Spec.Pool()

	// Two distinct programs and their expected fault-free measurements,
	// computed on an independent identical bench.
	probe, err := workload.Probe().Build(pool)
	if err != nil {
		t.Fatal(err)
	}
	rev := make([]isa.Inst, len(probe))
	for i, in := range probe {
		rev[len(probe)-1-i] = in
	}
	refPlat, err := platform.JunoR2()
	if err != nil {
		t.Fatal(err)
	}
	refBench, err := core.NewBench(refPlat, 1)
	if err != nil {
		t.Fatal(err)
	}
	refDom, err := refPlat.Domain(platform.DomainA72)
	if err != nil {
		t.Fatal(err)
	}
	expect := func(seq []isa.Inst) float64 {
		m, err := refBench.EMMeasureN(refDom, platform.Load{Seq: seq, ActiveCores: 2}, 2)
		if err != nil {
			t.Fatal(err)
		}
		return m.PeakDBm
	}
	wantProbe, wantRev := expect(probe), expect(rev)

	cycle := func(seq []isa.Inst, want float64) error {
		c, err := Dial(addr, 2*time.Second)
		if err != nil {
			return err
		}
		defer c.Close()
		for rep := 0; rep < 3; rep++ {
			if err := c.Load(platform.DomainA72, 2, pool, seq); err != nil {
				return err
			}
			if err := c.Run(); err != nil {
				return err
			}
			m, err := c.Measure(2)
			if err != nil {
				return err
			}
			if m.PeakDBm != want {
				return fmt.Errorf("session measured %v, want its own program's %v", m.PeakDBm, want)
			}
			if err := c.Stop(); err != nil {
				return err
			}
		}
		return nil
	}

	done := make(chan error, 3)
	go func() { done <- cycle(probe, wantProbe) }()
	go func() { done <- cycle(rev, wantRev) }()
	go func() {
		c, err := Dial(addr, 2*time.Second)
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		for rep := 0; rep < 2; rep++ {
			if err := c.SetCores(platform.DomainA53, 2); err != nil {
				done <- err
				return
			}
			if _, err := c.SweepFull(platform.DomainA53, 1, b.Samples); err != nil {
				done <- err
				return
			}
			if err := c.Reset(platform.DomainA53); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 3; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
