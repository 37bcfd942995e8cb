package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"cellmatch/internal/core"
	"cellmatch/internal/registry"
	"cellmatch/internal/server"
)

// stack is one in-process serving stack on loopback: a registry that
// loads the dictionary file through the delta-aware dict loader, the
// server over it, and an HTTP listener.
type stack struct {
	reg  *registry.Registry
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan error
}

// startStack loads path, publishes it and starts serving; the caller
// stops the stack.
func startStack(path string, opts core.Options) (*stack, error) {
	reg := registry.NewDelta(path, registry.DictDeltaLoader(path, opts))
	if _, err := reg.Reload(); err != nil {
		return nil, fmt.Errorf("load %s: %w", path, err)
	}
	srv, err := server.New(server.Config{Registry: reg})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &stack{reg: reg, srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the listener down, waits for the serve loop to return and
// releases the server's pool.
func (s *stack) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	s.srv.Close()
	return err
}

// client issues the benchmark's requests; it keeps at most two idle
// connections, one per concurrent caller.
type client struct {
	tr *http.Transport
	hc *http.Client
}

func newClient() *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 2, DisableCompression: true}
	return &client{tr: tr, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

// do sends one request and reads the whole response into buf. The
// cost runs from before the request is written until the last response
// byte is read. Client and server share the process, so with one
// request in flight its CPU time is the CPU time of the whole exchange.
// A non-200 status is an error.
func (c *client) do(method, url string, body io.Reader, buf *bytes.Buffer) (cost, error) {
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		return cost{}, err
	}
	buf.Reset()
	w := startWatch()
	resp, err := c.hc.Do(req)
	if err != nil {
		return cost{}, err
	}
	_, err = buf.ReadFrom(resp.Body)
	took := w.elapsed()
	resp.Body.Close()
	if err != nil {
		return cost{}, fmt.Errorf("%s %s: read: %w", method, url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return cost{}, fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(buf.Bytes()))
	}
	return took, nil
}

// chunked hides a reader's length so the request goes out with
// chunked transfer encoding, as a streaming client's would.
type chunked struct{ io.Reader }
