// Command fast-worker is a remote trial evaluator: it receives
// evaluation chunks from a fast-search / fast-serve dispatcher as JSON
// lines, compiles and caches execution plans locally, and replies with
// the result vectors. Evaluation is deterministic per design point, so
// any mix of workers — or none — produces the same study transcript.
//
// Two modes:
//
//	fast-worker                     serve one dispatcher over stdin/stdout
//	                                (how -workers N spawns it)
//	fast-worker -listen :9000       accept dispatcher connections over TCP
//	                                (reached via -connect host:port)
//
// Logs go to stderr in both modes. In stdio mode the process exits when
// the dispatcher closes its end; in TCP mode it serves connections until
// killed, keeping its plan cache (at most 512 compiled plans) warm
// across dispatcher restarts.
//
// Usage:
//
//	fast-worker [-listen host:port]
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"

	"fast/internal/dispatch"
)

func main() {
	var (
		listen = flag.String("listen", "", "TCP listen address (empty = serve stdin/stdout)")
	)
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("fast-worker: ")

	if *listen == "" {
		if err := dispatch.ServeConn(os.Stdin, os.Stdout, log.Printf); err != nil {
			fatal(err)
		}
		return
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	log.Printf("level=info msg=listening addr=%s", ln.Addr())
	for {
		conn, err := ln.Accept()
		if err != nil {
			fatal(err)
		}
		go func(c net.Conn) {
			defer c.Close()
			log.Printf("level=info msg=\"dispatcher connected\" peer=%s", c.RemoteAddr())
			if err := dispatch.ServeConn(c, c, log.Printf); err != nil {
				log.Printf("level=warn msg=\"connection ended\" peer=%s err=%q", c.RemoteAddr(), err)
				return
			}
			log.Printf("level=info msg=\"dispatcher disconnected\" peer=%s", c.RemoteAddr())
		}(conn)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fast-worker:", err)
	os.Exit(1)
}
