package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os/signal"
	"syscall"
	"time"

	"privateclean/internal/atomicio"
	"privateclean/internal/faults"
	"privateclean/internal/server"
	"privateclean/internal/telemetry"
)

// serveNotify, when set by a test, receives the bound listener address once
// the server is accepting connections.
var serveNotify func(net.Addr)

// cmdServe loads a private view once and serves corrected-query estimation
// over HTTP until SIGINT/SIGTERM, then drains in-flight requests and exits.
func cmdServe(args []string) (err error) {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	vf := addViewFlags(fs)
	addr := fs.String("addr", ":8080", "listen address (host:port; use :0 for an ephemeral port)")
	addrFile := fs.String("addr-file", "", "write the bound address to this file once serving (for scripts; robust with :0)")
	timeout := fs.Duration("timeout", server.DefaultTimeout, "per-query deadline before a 408 response")
	maxInflight := fs.Int("max-inflight", server.DefaultMaxInFlight, "concurrent query bound; excess requests get 429")
	drainTimeout := fs.Duration("drain-timeout", server.DefaultDrainTimeout, "graceful-shutdown drain deadline; expiry force-closes in-flight requests")
	drain := fs.Duration("drain", 0, "deprecated alias for -drain-timeout")
	pprofAddr := fs.String("pprof-addr", "", "serve Go pprof endpoints on this loopback host:port (e.g. 127.0.0.1:6060; default off)")
	cf := addCSVFlags(fs)
	tf := addTelFlags(fs)
	if err := fs.Parse(args); err != nil {
		return faults.Wrap(faults.ErrUsage, err)
	}
	if !vf.ok() {
		return faults.Errorf(faults.ErrUsage, "serve: -meta and exactly one of -in, -stats, or -col are required")
	}
	tel, err := tf.setup()
	if err != nil {
		return err
	}
	defer tf.finish(&err)
	tel.Redact.Allow(append(vf.paths(), *addr)...)
	// A .pcol mapping must outlive every in-flight query; it is released
	// when serve returns, after the server has drained.
	src, meta, prov, done, err := vf.open(cf)
	if err != nil {
		return err
	}
	defer done()

	if *drain > 0 && *drainTimeout == server.DefaultDrainTimeout {
		*drainTimeout = *drain
	}
	srv, err := server.New(server.Config{
		Rel:          src.Rel,
		Stats:        src.Stats,
		Meta:         meta,
		Prov:         prov,
		Confidence:   *vf.confidence,
		Timeout:      *timeout,
		MaxInFlight:  *maxInflight,
		DrainTimeout: *drainTimeout,
		Tel:          tel,
	})
	if err != nil {
		return err
	}
	stopPprof, _, err := startPprof(*pprofAddr, tel)
	if err != nil {
		return err
	}
	defer stopPprof()
	stopRuntime := telemetry.StartRuntimeMetrics(tel.Metrics, 10*time.Second, nil)
	defer stopRuntime()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	ready := make(chan net.Addr, 1)
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe(*addr, ready) }()

	select {
	case bound := <-ready:
		fmt.Printf("serving on %s\n", bound)
		rows := 0
		if src.Stats != nil {
			rows = src.Stats.Rows
		} else {
			rows = src.Rel.NumRows()
		}
		tel.Log.Info("serve started", "op", "serve", "rows", rows)
		if *addrFile != "" {
			// Written atomically so a watcher never reads a half address.
			if werr := atomicio.WriteFileBytes(*addrFile, []byte(bound.String()+"\n")); werr != nil {
				return werr
			}
		}
		if serveNotify != nil {
			serveNotify(bound)
		}
	case err := <-errCh:
		return err
	}

	select {
	case <-ctx.Done():
		stop()
		tel.Log.Info("serve draining", "op", "serve")
		if serr := srv.Drain(); serr != nil {
			return serr
		}
		// Collect the Serve goroutine's exit so nothing leaks.
		if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	case err := <-errCh:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}
