package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// host serves whichever handler was installed last on one 127.0.0.1
// listener, so a workload can swap in a freshly started server without
// rebinding.
type host struct {
	url     string
	srv     *http.Server
	handler atomic.Pointer[http.Handler]
	done    chan error
	client  *http.Client
}

func startHost() (*host, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &host{url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	h.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hp := h.handler.Load(); hp != nil {
			(*hp).ServeHTTP(w, r)
			return
		}
		http.Error(w, "no handler installed", http.StatusServiceUnavailable)
	})}
	h.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}
	go func() { h.done <- h.srv.Serve(ln) }()
	return h, nil
}

// set installs handler for every later request.
func (h *host) set(handler http.Handler) { h.handler.Store(&handler) }

// close stops the listener and waits for the serving goroutine to return.
func (h *host) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := h.srv.Shutdown(ctx)
	if serr := <-h.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	h.client.CloseIdleConnections()
	return err
}

// do sends one request and reads the whole response; the returned duration
// runs from sending the request to reading the last body byte.
func (h *host) do(method, path string, body []byte) (status int, resp []byte, d time.Duration, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, h.url+path, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	t0 := time.Now()
	r, err := h.client.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	resp, err = io.ReadAll(r.Body)
	d = time.Since(t0)
	r.Body.Close()
	return r.StatusCode, resp, d, err
}

// closedLoop runs ops operations on clients goroutines: each client takes
// the next operation index only after its previous operation completed. It
// returns the wall time from the first operation to the last completion.
func closedLoop(clients, ops int, op func(client, i int)) time.Duration {
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= ops {
					return
				}
				op(c, i)
			}
		}(c)
	}
	wg.Wait()
	return time.Since(t0)
}
