package main

// The service harness: an in-process serve.Server behind its HTTP
// handler on a loopback listener, and the client calls a msimd user
// makes — submit, stream, wait, stats.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

type service struct {
	sv     *serve.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
	spool  string

	doneSeen atomic.Uint64 // sessions /wait returned as done
}

// startService boots a server with its spool in a fresh directory under
// dir and serves its handler on a loopback port.
func startService(dir string, workers int) (*service, error) {
	spool, err := os.MkdirTemp(dir, "spool-")
	if err != nil {
		return nil, err
	}
	sv, err := serve.New(serve.Config{Spool: spool, Workers: workers})
	if err != nil {
		os.RemoveAll(spool)
		return nil, fmt.Errorf("serve.New: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sv.Drain()
		os.RemoveAll(spool)
		return nil, err
	}
	s := &service{
		sv:     sv,
		hs:     &http.Server{Handler: sv.Handler()},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * workers}},
		spool:  spool,
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// close stops the listener and the server, and removes the spool.
func (s *service) close() {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		s.hs.Close()
	}
	<-s.served
	s.sv.Drain()
	os.RemoveAll(s.spool)
}

func (s *service) do(method, path string, body []byte, want int, out any) error {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, out)
}

func (s *service) submit(g genSource) (string, error) {
	body, err := json.Marshal(map[string]string{"name": g.Name, "source": g.Src})
	if err != nil {
		return "", err
	}
	var info serve.Info
	if err := s.do("POST", "/api/v1/sessions", body, http.StatusAccepted, &info); err != nil {
		return "", err
	}
	return info.ID, nil
}

// wait blocks until the session is terminal and fails unless it is done.
func (s *service) wait(id string) (serve.Info, error) {
	var info serve.Info
	if err := s.do("GET", "/api/v1/sessions/"+id+"/wait", nil, http.StatusOK, &info); err != nil {
		return info, err
	}
	if info.State != serve.StateDone {
		return info, fmt.Errorf("session %s ended %s: %s", id, info.State, info.Failure)
	}
	s.doneSeen.Add(1)
	return info, nil
}

func (s *service) stats() (serve.Stats, error) {
	var st serve.Stats
	err := s.do("GET", "/api/v1/stats", nil, http.StatusOK, &st)
	return st, err
}

// stream follows the session's NDJSON event stream to its end and
// returns when the first "running" state event and the end arrived.
func (s *service) stream(id string) (running, end time.Time, err error) {
	resp, err := s.client.Get(s.base + "/api/v1/sessions/" + id + "/stream")
	if err != nil {
		return running, end, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return running, end, fmt.Errorf("stream %s: HTTP %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var ev struct {
			Event string      `json:"event"`
			State serve.State `json:"state"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return running, end, err
		}
		now := time.Now()
		if ev.Event == "state" && ev.State == serve.StateRunning && running.IsZero() {
			running = now
		}
		if ev.Event == "end" {
			if running.IsZero() {
				running = now
			}
			return running, now, nil
		}
	}
	if err := sc.Err(); err != nil {
		return running, end, err
	}
	return running, end, errors.New("stream ended without an end event")
}

// job submits g and blocks until the session is done, returning its
// final info. With a tracer it also follows the event stream to split
// the job into submit, queue and run spans.
func (s *service) job(g genSource, sp scope) (serve.Info, error) {
	sub := sp.begin("serve.submit")
	id, err := s.submit(g)
	sub.end()
	if err != nil {
		return serve.Info{}, err
	}
	if sp.tr != nil {
		submitted := time.Now()
		running, end, err := s.stream(id)
		if err != nil {
			return serve.Info{}, err
		}
		sp.add("serve.queue", submitted, running)
		sp.add("serve.run", running, end)
	}
	w := sp.begin("serve.wait")
	defer w.end()
	return s.wait(id)
}

// statsLag reads /stats once and reports whether it counts fewer done
// sessions than /wait has already returned as done: the stats race seen
// from outside. It is reported, never retried.
func (s *service) statsLag() (bool, error) {
	seen := s.doneSeen.Load()
	st, err := s.stats()
	if err != nil {
		return false, err
	}
	return st.Done < seen, nil
}
