package main

import (
	"flag"
	"net"

	"privateclean/internal/faults"
	"privateclean/internal/server"
)

// serveNotify, when set by a test, receives the bound listener address once
// the server is accepting connections.
var serveNotify func(net.Addr)

// cmdServe loads a private view once and serves corrected-query estimation
// over HTTP until SIGINT/SIGTERM, then drains in-flight requests and exits.
func cmdServe(args []string) (err error) {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	vf := addViewFlags(fs)
	lf := addListenFlags(fs, ":8080")
	timeout := fs.Duration("timeout", server.DefaultTimeout, "per-query deadline before a 408 response")
	maxInflight := fs.Int("max-inflight", server.DefaultMaxInFlight, "concurrent query bound; excess requests get 429")
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
	tel.Redact.Allow(append(vf.paths(), *lf.addr)...)
	// A .pcol mapping must outlive every in-flight query; it is released
	// when serve returns, after the server has drained.
	src, meta, prov, done, err := vf.open(cf)
	if err != nil {
		return err
	}
	defer done()

	srv, err := server.New(server.Config{
		Rel:         src.Rel,
		Stats:       src.Stats,
		Meta:        meta,
		Prov:        prov,
		Confidence:  *vf.confidence,
		Timeout:     *timeout,
		MaxInFlight: *maxInflight,
		Tel:         tel,
	})
	if err != nil {
		return err
	}
	rows := 0
	if src.Stats != nil {
		rows = src.Stats.Rows
	} else {
		rows = src.Rel.NumRows()
	}
	return lf.run(tel, srv, "serve", "serving", serveNotify, nil, "rows", rows)
}
