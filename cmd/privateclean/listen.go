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
	"privateclean/internal/telemetry"
)

// listenFlags are the flags serve and collect share: where to listen, where
// to publish the bound address, how long to drain, and where pprof listens.
type listenFlags struct {
	addr, addrFile, pprofAddr *string
	drainTimeout              *time.Duration
}

func addListenFlags(fs *flag.FlagSet, addr string) *listenFlags {
	return &listenFlags{
		addr:         fs.String("addr", addr, "listen address (host:port; use :0 for an ephemeral port)"),
		addrFile:     fs.String("addr-file", "", "write the bound address to this file once serving (for scripts; robust with :0)"),
		pprofAddr:    fs.String("pprof-addr", "", "serve Go pprof endpoints on this loopback host:port (e.g. 127.0.0.1:6060; default off)"),
		drainTimeout: fs.Duration("drain-timeout", 5*time.Second, "graceful-shutdown drain deadline; expiry force-closes in-flight requests"),
	}
}

// service is what serve and collect run: the query server and the collector.
type service interface {
	ListenAndServe(addr string, ready chan<- net.Addr) error
	Shutdown(ctx context.Context) error
}

// run serves svc until SIGINT or SIGTERM, then drains it within
// -drain-timeout. Once the listener is bound it prints "<verb> on <addr>",
// writes -addr-file, logs "<op> started" with attrs and calls notify (a
// test hook; nil outside tests). sample runs on the runtime-metrics tick
// (nil for none). pprof, when asked for, serves for the same lifetime.
func (lf *listenFlags) run(tel *telemetry.Set, svc service, op, verb string, notify func(net.Addr), sample func(), attrs ...any) error {
	stopPprof, _, err := startPprof(*lf.pprofAddr, tel)
	if err != nil {
		return err
	}
	defer stopPprof()
	stopRuntime := telemetry.StartRuntimeMetrics(tel.Metrics, 10*time.Second, sample)
	defer stopRuntime()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	ready := make(chan net.Addr, 1)
	errCh := make(chan error, 1)
	go func() { errCh <- svc.ListenAndServe(*lf.addr, ready) }()

	select {
	case bound := <-ready:
		fmt.Printf("%s on %s\n", verb, bound)
		tel.Log.Info(op+" started", append([]any{"op", op}, attrs...)...)
		if *lf.addrFile != "" {
			// Written atomically so a watcher never reads a half address.
			if werr := atomicio.WriteFileBytes(*lf.addrFile, []byte(bound.String()+"\n")); werr != nil {
				return werr
			}
		}
		if notify != nil {
			notify(bound)
		}
	case err := <-errCh:
		return err
	}

	select {
	case <-ctx.Done():
		stop()
		tel.Log.Info(op+" draining", "op", op)
		dctx, cancel := context.WithTimeout(context.Background(), *lf.drainTimeout)
		defer cancel()
		serr := svc.Shutdown(dctx)
		// Collect the Serve goroutine's exit so nothing leaks.
		if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return serr
	case err := <-errCh:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}
