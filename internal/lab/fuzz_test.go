package lab

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/platform"
	"repro/internal/workload"
)

// requestConn is one end of a net.Pipe whose reads come from a fixed
// request stream instead: the server sees the stream, then EOF, so a
// request that leaves it waiting for body lines ends the session instead
// of hanging. Replies still travel over the pipe.
type requestConn struct {
	net.Conn
	req io.Reader
}

func (c requestConn) Read(b []byte) (int, error) { return c.req.Read(b) }

// FuzzServerRequest feeds arbitrary request streams — command lines plus
// whatever LOAD and MONITOR bodies they carry — to one server session. The
// daemon must never panic, and everything it sends back must be a
// well-formed OK/ERR reply line until the session closes.
func FuzzServerRequest(f *testing.F) {
	p, err := platform.JunoR2()
	if err != nil {
		f.Fatal(err)
	}
	b, err := core.NewBench(p, 1)
	if err != nil {
		f.Fatal(err)
	}
	b.Samples = 1
	srv, err := NewServer(b)
	if err != nil {
		f.Fatal(err)
	}
	d, err := p.Domain(platform.DomainA72)
	if err != nil {
		f.Fatal(err)
	}
	pool := d.Spec.Pool()
	seq, err := workload.Probe().Build(pool)
	if err != nil {
		f.Fatal(err)
	}
	prog := isa.FormatProgram(pool, seq)
	lines := strings.Count(prog, "\n")
	load := fmt.Sprintf("LOAD cortex-a72 2 %d\n%s", lines, prog)
	top := d.Spec.MaxClockHz

	for _, seed := range []string{
		fmt.Sprintf("HELLO %d", ProtocolVersion),
		"INFO",
		"CAPS cortex-a72",
		"STATE cortex-a72",
		fmt.Sprintf("SETCLOCK cortex-a72 %g", top),
		"SETVOLTS cortex-a72 0.9",
		"SETCORES cortex-a72 2",
		"RESET cortex-a72",
		load + "RUN\nMEASURE 1\nVMEASURE em 1 1\nSTOP",
		load + "VMINFULL 1 1",
		load + fmt.Sprintf("SHMOO 1 %g", top),
		fmt.Sprintf("SWEEPAT cortex-a72 2 1 %g", top),
		"SWEEPFULL cortex-a53 1 1",
		fmt.Sprintf("MONITOR 1\ncortex-a72 2 %d 0\n%s", lines, strings.TrimSuffix(prog, "\n")),
		fmt.Sprintf("MONITOR 1\ncortex-a72 2 %d 2 0 3\n%s", lines, strings.TrimSuffix(prog, "\n")),
		"STATS cortex-a72",
		"QUIT",
		"LOAD cortex-a72 2 3\nnop",
		"MONITOR 2\ncortex-a72 2 1 0",
		"LOAD cortex-a72 2 1\n" + strings.Repeat("x", maxLineLen+1),
	} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, req string) {
		client, pipe := net.Pipe()
		defer client.Close()
		server := requestConn{Conn: pipe, req: strings.NewReader(req + "\n")}
		if !srv.trackConn(server) {
			t.Fatal("server refused the session")
		}
		// The server's deferred close ends the reply stream.
		go srv.handle(server)
		r := bufio.NewReader(client)
		for {
			line, err := readLineN(r, maxReplyLen)
			if err != nil {
				if err != io.EOF {
					t.Fatalf("request %q: reading replies: %v", req, err)
				}
				return
			}
			if _, _, err := parseReply(line); err != nil {
				t.Fatalf("request %q drew malformed reply %q", req, line)
			}
		}
	})
}
