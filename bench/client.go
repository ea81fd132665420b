package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"
)

// finalLine is the part of a protocol response line the benchmark
// reads. Tuple lines are never decoded, only counted and hashed.
type finalLine struct {
	OK          bool         `json:"ok"`
	Err         string       `json:"error"`
	Refresh     string       `json:"refresh"`
	Outputs     int64        `json:"outputs"`
	Resolutions int64        `json:"resolutions"`
	IndexBuilds int64        `json:"index_builds"`
	Stats       *serverStats `json:"stats"`
}

// serverStats is the stats-op payload: the program's own counters, read
// from outside.
type serverStats struct {
	IndexBuilds      int64 `json:"index_builds"`
	DeltaIndexBuilds int64 `json:"delta_index_builds"`
	Compactions      int64 `json:"compactions"`
	PlanHits         int64 `json:"plan_hits"`
	PlanMisses       int64 `json:"plan_misses"`
	Shed             int64 `json:"shed"`
	SlowConsumers    int64 `json:"slow_consumers"`
	Checkpoints      int64 `json:"checkpoints"`
}

// reply is one request's answer as the client saw it.
type reply struct {
	got   answer
	final finalLine
	bytes int // response bytes read, newlines included
}

// session is one protocol connection.
type session struct {
	c net.Conn
	r *bufio.Reader
}

func newSession(c net.Conn) *session {
	return &session{c: c, r: bufio.NewReaderSize(c, 64<<10)}
}

// dialer opens a protocol session.
type dialer func() (*session, error)

func dialTo(addr string) dialer {
	return func() (*session, error) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return newSession(c), nil
	}
}

// readLine returns the next line without its newline. The slice is the
// reader's buffer unless the line outgrew it.
func (s *session) readLine() ([]byte, error) {
	line, err := s.r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		long := append([]byte(nil), line...)
		for err == bufio.ErrBufferFull {
			line, err = s.r.ReadSlice('\n')
			long = append(long, line...)
		}
		line = long
	}
	if err != nil {
		return nil, err
	}
	return line[:len(line)-1], nil
}

// roundTrip sends one request line and reads up to its final response
// line, folding the streamed tuple lines into a count and a checksum.
func (s *session) roundTrip(line []byte) (reply, error) {
	var rep reply
	if _, err := s.c.Write(line); err != nil {
		return rep, err
	}
	for {
		l, err := s.readLine()
		if err != nil {
			return rep, err
		}
		rep.bytes += len(l) + 1
		if bytes.HasPrefix(l, []byte(tuplePrefix)) {
			rep.got.tuples++
			rep.got.sum += lineHash(l)
			continue
		}
		if len(l) == 0 {
			continue
		}
		if err := json.Unmarshal(l, &rep.final); err != nil {
			return rep, fmt.Errorf("bad response line %q: %w", truncate(l), err)
		}
		return rep, nil
	}
}

func truncate(b []byte) []byte {
	if len(b) > 120 {
		return b[:120]
	}
	return b
}

// check compares a reply with what the step must produce.
func (st *step) check(rep reply) error {
	switch {
	case !rep.final.OK:
		return fmt.Errorf("request %s: error %q", bytes.TrimSpace(truncate(st.line)), rep.final.Err)
	case rep.got != st.want:
		return fmt.Errorf("request %s: got %d tuples (sum %x), want %d (sum %x)",
			bytes.TrimSpace(truncate(st.line)), rep.got.tuples, rep.got.sum, st.want.tuples, st.want.sum)
	case st.refresh != "" && rep.final.Refresh != st.refresh:
		return fmt.Errorf("request %s: refresh %q, want %q", bytes.TrimSpace(truncate(st.line)), rep.final.Refresh, st.refresh)
	}
	return nil
}

// do sends the step and checks its reply.
func (s *session) do(st *step) (reply, error) {
	rep, err := s.roundTrip(st.line)
	if err != nil {
		return rep, err
	}
	return rep, st.check(rep)
}

var closeLine = []byte("{\"op\":\"close\"}\n")

// end closes the session the way a fresh op does: a close request, its
// reply, the peer's EOF, and a reset instead of a FIN so that tens of
// thousands of short sessions leave no TIME_WAIT sockets behind.
func (s *session) end() error {
	defer s.c.Close()
	rep, err := s.roundTrip(closeLine)
	if err != nil {
		return err
	}
	if !rep.final.OK {
		return fmt.Errorf("close: %s", rep.final.Err)
	}
	if _, err := s.r.ReadByte(); err != io.EOF {
		return fmt.Errorf("close: expected EOF, got %v", err)
	}
	if tc, ok := s.c.(*net.TCPConn); ok {
		tc.SetLinger(0) // best effort: only saves kernel socket state
	}
	return nil
}

// opResult is what running one op produced.
type opResult struct {
	resolutions int64 // summed over the op's replies
	outputs     int64 // of the op's last reply
	respBytes   int
	reqBytes    int
}

// runOp executes one op. Ops on a long-lived session use sess; fresh
// ops dial their own.
func runOp(o *op, sess *session, dial dialer) (opResult, error) {
	var res opResult
	if o.fresh {
		var err error
		if sess, err = dial(); err != nil {
			return res, err
		}
	}
	for i := range o.steps {
		st := &o.steps[i]
		rep, err := sess.do(st)
		res.respBytes += rep.bytes
		res.reqBytes += len(st.line)
		if err != nil {
			if o.fresh {
				sess.c.Close()
			}
			return res, err
		}
		res.resolutions += rep.final.Resolutions
		res.outputs = rep.final.Outputs
	}
	if o.fresh {
		res.reqBytes += len(closeLine)
		return res, sess.end()
	}
	return res, nil
}

// daemon is a running tetrisd.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	metrics string
	started time.Time
	logDone chan struct{}
	killed  sync.Once
	logMu   sync.Mutex
	logTail []string
}

// startDaemon spawns the real binary the way the benchmark fixes it:
// loopback TCP on a kernel-chosen port, a metrics port, two admission
// slots and every other flag at its default.
func startDaemon(bin, dataDir string) (*daemon, error) {
	args := []string{"-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0", "-max-concurrent", strconv.Itoa(admissionSlots)}
	if dataDir != "" {
		args = append(args, "-data-dir", dataDir)
	}
	d := &daemon{cmd: exec.Command(bin, args...), started: time.Now(), logDone: make(chan struct{})}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	// The daemon announces both ports on stderr. The same goroutine
	// keeps draining it afterwards so the daemon never blocks on a full
	// pipe; its last lines are kept for error reports.
	ready := make(chan struct{})
	go func() {
		defer close(d.logDone)
		sc := bufio.NewScanner(stderr)
		announced := false
		for sc.Scan() {
			line := sc.Text()
			d.logMu.Lock()
			if rest, ok := strings.CutPrefix(line, "tetrisd: metrics on "); ok {
				d.metrics = rest
			} else if rest, ok := strings.CutPrefix(line, "tetrisd: listening on "); ok {
				d.addr = rest
			}
			d.logTail = append(d.logTail, line)
			if len(d.logTail) > 20 {
				d.logTail = d.logTail[1:]
			}
			up := d.addr != "" && d.metrics != ""
			d.logMu.Unlock()
			if up && !announced {
				announced = true
				close(ready)
			}
		}
	}()
	select {
	case <-ready:
		return d, nil
	case <-d.logDone:
		d.cmd.Wait()
		return nil, fmt.Errorf("tetrisd exited before listening:\n%s", d.tail())
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, errors.New("tetrisd did not announce its ports within 30s")
	}
}

func (d *daemon) tail() string {
	d.logMu.Lock()
	defer d.logMu.Unlock()
	return strings.Join(d.logTail, "\n")
}

// kill sends SIGKILL and waits until the process and its log reader
// have ended. Safe to call again.
func (d *daemon) kill() {
	d.killed.Do(func() {
		d.cmd.Process.Kill()
		<-d.logDone
		d.cmd.Wait()
	})
}

// procSample is the daemon's resource use as /proc reports it.
type procSample struct {
	cpuTicks int64 // utime+stime
	rssKiB   int64 // VmRSS
	hwmKiB   int64 // VmHWM
}

// clockTicksPerSecond is USER_HZ, which Linux fixes at 100 on every
// architecture Go supports.
const clockTicksPerSecond = 100

func (d *daemon) sample() (procSample, error) {
	var s procSample
	pid := strconv.Itoa(d.cmd.Process.Pid)
	stat, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return s, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(stat, ')')
	fields := strings.Fields(string(stat[i+1:]))
	if i < 0 || len(fields) < 13 {
		return s, fmt.Errorf("unexpected /proc/%s/stat", pid)
	}
	ut, err1 := strconv.ParseInt(fields[11], 10, 64)
	st, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return s, fmt.Errorf("unexpected /proc/%s/stat times", pid)
	}
	s.cpuTicks = ut + st
	status, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return s, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		for prefix, dst := range map[string]*int64{"VmHWM:": &s.hwmKiB, "VmRSS:": &s.rssKiB} {
			if rest, ok := strings.CutPrefix(line, prefix); ok {
				if f := strings.Fields(rest); len(f) > 0 {
					*dst, _ = strconv.ParseInt(f[0], 10, 64)
				}
			}
		}
	}
	if s.hwmKiB == 0 || s.rssKiB == 0 {
		return s, fmt.Errorf("no VmHWM/VmRSS in /proc/%s/status", pid)
	}
	return s, nil
}

// promSums reads a Prometheus text page and sums, per metric name, the
// values of all its label sets.
func promSums(r io.Reader) (map[string]float64, error) {
	sums := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		sums[name] += v
	}
	return sums, sc.Err()
}

// scrape fetches the daemon's /metrics page.
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := http.Get("http://" + d.metrics + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return promSums(resp.Body)
}

// fetchStats asks the server for its stats over a short session.
func fetchStats(dial dialer) (serverStats, error) {
	s, err := dial()
	if err != nil {
		return serverStats{}, err
	}
	defer s.c.Close()
	rep, err := s.roundTrip([]byte("{\"op\":\"stats\"}\n"))
	if err != nil {
		return serverStats{}, err
	}
	if !rep.final.OK || rep.final.Stats == nil {
		return serverStats{}, fmt.Errorf("stats: %s", rep.final.Err)
	}
	return *rep.final.Stats, nil
}

// loadAll sends the workload's relations over one set-up session.
func loadAll(w *workload, dial dialer) error {
	s, err := dial()
	if err != nil {
		return err
	}
	defer s.c.Close()
	for _, r := range w.rels {
		if _, err := s.do(&step{line: r.loadLine()}); err != nil {
			return err
		}
	}
	return nil
}

// openClient opens client c's long-lived session and sends its init
// steps. Workloads of fresh ops have no long-lived session.
func openClient(w *workload, c int, dial dialer) (*session, error) {
	if w.ops[c][0].fresh {
		return nil, nil
	}
	s, err := dial()
	if err != nil {
		return nil, err
	}
	for i := range w.init[c] {
		if _, err := s.do(&w.init[c][i]); err != nil {
			s.c.Close()
			return nil, err
		}
	}
	return s, nil
}
