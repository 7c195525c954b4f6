package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"rxview"
	"rxview/server"
)

// instance is one served view: the dataset, the view, the engine and the
// real server.NewHandler on a loopback TCP listener in this process.
type instance struct {
	syn   *rxview.Synthetic
	view  *rxview.View
	eng   *server.Engine
	srv   *http.Server
	serve chan error // Serve's return value
	base  string     // http://127.0.0.1:port
	dir   string     // durable data directory; empty for in-memory views
	shut  bool       // close has run
}

// setupTimes splits one set-up into its calls into the program.
type setupTimes struct {
	dataset time.Duration // rxview.NewSynthetic
	open    time.Duration // rxview.Open (durable: creates the log)
	serve   time.Duration // server.New + NewHandler + listen, up to the first answered /livez
}

func (t setupTimes) total() time.Duration { return t.dataset + t.open + t.serve }

func syntheticConfig(sp spec) rxview.SyntheticConfig {
	return rxview.SyntheticConfig{NC: sp.nc, Seed: dataSeed}
}

func viewOptions(sp spec, dir string) []rxview.Option {
	var opts []rxview.Option
	if dir != "" {
		opts = append(opts, rxview.WithDurability(dir), rxview.WithFsync(rxview.FsyncAlways))
	}
	return opts
}

// setUp builds and serves one view. wrap, when non-nil, wraps the handler
// (the traced run's timing middleware).
func setUp(sp spec, dir string, wrap func(http.Handler) http.Handler) (*instance, setupTimes, error) {
	var t setupTimes
	t0 := time.Now()
	syn, err := rxview.NewSynthetic(syntheticConfig(sp))
	if err != nil {
		return nil, t, fmt.Errorf("generating dataset: %w", err)
	}
	t1 := time.Now()
	view, err := rxview.Open(syn.ATG, syn.DB, viewOptions(sp, dir)...)
	if err != nil {
		return nil, t, fmt.Errorf("opening view: %w", err)
	}
	t2 := time.Now()
	in := &instance{syn: syn, view: view, dir: dir, serve: make(chan error, 1)}
	in.eng = server.New(view)
	var h http.Handler = server.NewHandler(in.eng, server.HandlerOptions{})
	if wrap != nil {
		h = wrap(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		in.eng.Close()
		_ = view.Close()
		return nil, t, fmt.Errorf("listening on loopback: %w", err)
	}
	in.base = "http://" + ln.Addr().String()
	in.srv = &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	go func() { in.serve <- in.srv.Serve(ln) }()
	if err := in.live(); err != nil {
		_ = in.close()
		return nil, t, err
	}
	t3 := time.Now()
	t.dataset, t.open, t.serve = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	return in, t, nil
}

// live waits for the first answered /livez, over a connection of its own.
func (in *instance) live() error {
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	resp, err := (&http.Client{Transport: tr, Timeout: 10 * time.Second}).Get(in.base + "/livez")
	if err != nil {
		return fmt.Errorf("first /livez: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("first /livez: status %d", resp.StatusCode)
	}
	return nil
}

// close stops serving: the HTTP server drains, the engine's apply loop
// drains, and a durable view writes its final checkpoint. Repeat calls do
// nothing.
func (in *instance) close() error {
	if in.shut {
		return nil
	}
	in.shut = true
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := in.srv.Shutdown(ctx)
	if serr := <-in.serve; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	in.eng.Close()
	if verr := in.view.Close(); verr != nil && err == nil {
		err = verr
	}
	return err
}

// setUpRepeated times reps set-ups in a row and keeps the last one serving;
// a set-up of a few milliseconds only reads steadily as a median over
// several. Each earlier instance is shut down and collected before the
// next starts, so peak memory is one instance's.
func setUpRepeated(sp spec, scratch string, wrap func(http.Handler) http.Handler) (*instance, []setupTimes, error) {
	var times []setupTimes
	for rep := 0; rep < sp.setupReps; rep++ {
		dir := ""
		if sp.durable {
			dir = filepath.Join(scratch, fmt.Sprintf("data-%d", rep))
		}
		in, t, err := setUp(sp, dir, wrap)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, t)
		if rep == sp.setupReps-1 {
			return in, times, nil
		}
		if err := in.close(); err != nil {
			return nil, nil, fmt.Errorf("closing set-up %d: %w", rep, err)
		}
		if dir != "" {
			if err := os.RemoveAll(dir); err != nil {
				return nil, nil, err
			}
		}
		runtime.GC()
		debug.FreeOSMemory()
	}
	return nil, nil, errors.New("no set-up repetitions")
}
