package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/annotate"
	"repro/internal/ingest"
	"repro/internal/serve"
)

// server is one running textureserver process.
type server struct {
	cmd  *exec.Cmd
	addr string
	log  *os.File
	done chan error
}

// freeAddr picks a loopback port nothing listens on.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer spawns the binary with args plus -addr and waits until
// /readyz answers 200. It returns the server and the time from spawn to
// that first 200.
func startServer(bin, logPath string, args []string) (*server, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	lf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = lf, lf
	s := &server{cmd: cmd, addr: addr, log: lf, done: make(chan error, 1)}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, 0, err
	}
	go func() { s.done <- cmd.Wait() }()

	// A dedicated client without keep-alive: each probe is a fresh
	// connect, as a load balancer's readiness check would be.
	probe := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: time.Second}
	deadline := t0.Add(120 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-s.done:
			lf.Close()
			return nil, 0, fmt.Errorf("textureserver exited before ready: %v (log: %s)", err, logPath)
		default:
		}
		resp, err := probe.Get("http://" + addr + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(t0), nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	s.stop()
	return nil, 0, fmt.Errorf("textureserver not ready within 120s (log: %s)", logPath)
}

// stop sends SIGTERM, waits for the process to exit (SIGKILL after the
// drain budget), and reports an unclean exit.
func (s *server) stop() error {
	defer s.log.Close()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return <-s.done
	}
	select {
	case err := <-s.done:
		return err
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
		return fmt.Errorf("textureserver ignored SIGTERM")
	}
}

// cpuTime is the CPU time the process's threads have run, from the
// nanosecond counters in /proc/PID/task/*/schedstat; utime and stime
// in /proc/PID/stat count whole 10 ms ticks, too coarse for a window
// of a second.
func (s *server) cpuTime() (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", s.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, t := range tasks {
		b, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread exited between the listing and the read
		}
		f := strings.Fields(string(b))
		if len(f) < 1 {
			return 0, fmt.Errorf("empty schedstat for task %s", t.Name())
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing schedstat: %w", err)
		}
		total += ns
	}
	return time.Duration(total), nil
}

// peakRSSMiB is VmHWM, the process's peak resident set, in MiB.
func (s *server) peakRSSMiB() (float64, error) { return s.statusMiB("VmHWM:") }

// rssMiB is VmRSS, the process's resident set now, in MiB.
func (s *server) rssMiB() (float64, error) { return s.statusMiB("VmRSS:") }

func (s *server) statusMiB(field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == field {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// statusz is the part of GET /statusz the benchmark reads.
type statusz struct {
	Shed     int64                 `json:"shed"`
	Timeouts int64                 `json:"timeouts"`
	Cache    *serve.CacheStats     `json:"cache"`
	Registry *serve.RegistryStatus `json:"registry"`
	Ingest   *ingest.Status        `json:"ingest"`
}

func getJSON(ctx context.Context, c *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (s *server) status(ctx context.Context, c *http.Client) (statusz, error) {
	var st statusz
	err := getJSON(ctx, c, "http://"+s.addr+"/statusz", &st)
	return st, err
}

// topics is the model's topic count K, from GET /topics.
func (s *server) topics(ctx context.Context, c *http.Client) (int, error) {
	var ts []serve.TopicInfo
	if err := getJSON(ctx, c, "http://"+s.addr+"/topics", &ts); err != nil {
		return 0, err
	}
	return len(ts), nil
}

// checkCard validates one /annotate answer: a WireCard for the
// request's recipe with a topic in [0, K).
func checkCard(b []byte, id string, k int) error {
	var c annotate.WireCard
	if err := json.Unmarshal(b, &c); err != nil {
		return fmt.Errorf("answer is not a texture card: %v", err)
	}
	return checkWireCard(&c, id, k)
}

func checkWireCard(c *annotate.WireCard, id string, k int) error {
	if c.RecipeID != id {
		return fmt.Errorf("card for %q answered request for %q", c.RecipeID, id)
	}
	if c.Topic < 0 || c.Topic >= k {
		return fmt.Errorf("card for %q has topic %d outside [0,%d)", id, c.Topic, k)
	}
	return nil
}
