// Command adaptivetc-serve runs the resident scheduler service: one
// long-lived work-stealing worker pool serving a stream of jobs over an
// HTTP JSON API, with multi-tenant QoS admission in front of it.
//
// Usage:
//
//	adaptivetc-serve -addr :8080 -workers 4 -queue 256
//	adaptivetc-serve -addr :8080 -workers 4 -max-concurrent-jobs 2   # 2 jobs at once on disjoint worker shards
//	adaptivetc-serve -addr :8080 -check        # audit scheduler invariants per job
//	adaptivetc-serve -tenant-rate 50 -tenant-quota 32                # per-tenant limits
//	adaptivetc-serve -store-dir /var/lib/atc   # persistent, replayable job store
//	adaptivetc-serve -store-dir /var/lib/atc -replay                 # list the journal and exit
//
// With -store-dir, every submission, start, result and DSL program
// registration is journaled (CRC-framed, group-commit fsynced); a restart
// on the same directory serves completed results again, re-queues jobs
// that never started, marks mid-run jobs aborted-by-restart, and
// restores the program cache.
//
// API:
//
//	POST   /jobs       {"program":"nqueens-array","n":9,"engine":"adaptivetc",
//	                    "timeout_ms":5000,"tenant":"frontend","priority":"interactive"}
//	                   (X-Tenant header overrides the body's tenant)
//	GET    /jobs/{id}  job status; value, stats and latency once terminal
//	DELETE /jobs/{id}  cooperative cancellation
//
// Both job reads long-poll: POST /jobs?wait=2s and GET /jobs/{id}?wait=2s
// hold the request until the job is terminal, the wait (at most 30s; longer
// is clamped) has passed, or the client hangs up, then answer with the
// usual status code and body — "state" says whether the job finished. A
// short job is so submitted and collected in one round trip. No wait, or
// wait=0, answers at once; a malformed wait is a 400.
//
//	POST   /programs   {"name":"mine","source":"param n = 8 ..."} — compile
//	                   and cache a DSL program; returns its content hash,
//	                   runnable via {"program_hash": ...} on POST /jobs
//	GET    /programs   cached DSL programs (also /programs/{hash}, DELETE)
//	GET    /metrics    throughput, queue depth, latency histogram, per-tenant/
//	                   per-priority/per-engine breakdowns
//	GET    /catalog    available programs and engines
//	GET    /healthz    liveness
//	GET    /readyz     readiness; 503 once draining
//
// A full admission queue, an exhausted tenant quota, or a drained token
// bucket answers 429 with a Retry-After — the backpressure contract
// adaptivetc-loadgen exercises. On SIGTERM/SIGINT the server drains: it
// stops accepting jobs (readyz flips), finishes the backlog within
// -drain-timeout, then exits.
//
// Cluster mode: -peers joins this node to a group of serve processes that
// gossip load, forward queued jobs hot→cold, and let idle nodes steal
// from a peer's backlog (see internal/cluster):
//
//	adaptivetc-serve -addr :8331 -node-id http://127.0.0.1:8331 \
//	    -peers http://127.0.0.1:8332
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"adaptivetc/internal/cluster"
	"adaptivetc/internal/jobstore"
	"adaptivetc/internal/progstore"
	"adaptivetc/internal/sched"
	"adaptivetc/internal/serve"
	"adaptivetc/internal/wsrt"
)

// replayStore lists every valid record in dir, one line each — the
// offline view of what a restart would recover.
func replayStore(dir string) error {
	n := 0
	err := jobstore.Replay(dir, func(r *jobstore.Record) {
		n++
		switch r.T {
		case jobstore.TProgram:
			fmt.Printf("%6d  program  %s  name=%q  %d bytes\n", n, r.Hash, r.Name, len(r.Source))
		case jobstore.TProgDel:
			fmt.Printf("%6d  progdel  %s\n", n, r.Hash)
		case jobstore.TSubmit:
			fmt.Printf("%6d  submit   %-8s %s\n", n, r.ID, string(r.Req))
		case jobstore.TStart:
			fmt.Printf("%6d  start    %-8s\n", n, r.ID)
		case jobstore.TDone:
			fmt.Printf("%6d  done     %-8s state=%s value=%d makespan_ns=%d err=%q\n",
				n, r.ID, r.State, r.Value, r.MakespanNS, r.Err)
		default:
			fmt.Printf("%6d  %s\n", n, r.T)
		}
	})
	if err != nil {
		return err
	}
	fmt.Printf("adaptivetc-serve: %d records in %s\n", n, dir)
	return nil
}

// advertisedURL is the base URL a node listening on addr advertises when
// -node-id is not given: addr's host and port, with 127.0.0.1 for an empty
// host (":8331" listens on every interface).
func advertisedURL(addr string) (string, error) {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return "", err
	}
	if host == "" {
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, port), nil
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 4, "resident pool worker count")
	queue := flag.Int("queue", 256, "admission queue capacity")
	maxJobs := flag.Int("max-concurrent-jobs", 1, "jobs run concurrently, each on its own fixed worker shard of near-equal width (clamped to -workers)")
	check := flag.Bool("check", false, "verify scheduler invariants on every job's trace")
	seed := flag.Int64("seed", 1, "victim-selection seed")
	growable := flag.Bool("growable-deque", true, "use growable deques (fixed deques can overflow on deep jobs)")
	relaxed := flag.Bool("relaxed-deque", false, "use the lock-reduced deque variant (implies growable; invariant checks run in multiplicity-tolerant mode)")
	stealPolicy := flag.String("steal-policy", "random",
		fmt.Sprintf("default steal strategy for jobs that do not set one: %v", wsrt.StealPolicyNames()))
	tenantQuota := flag.Int("tenant-quota", 0, "default per-tenant in-flight job cap (0 = unlimited)")
	tenantRate := flag.Float64("tenant-rate", 0, "default per-tenant submission rate limit, jobs/s (0 = unlimited)")
	tenantBurst := flag.Int("tenant-burst", 0, "default per-tenant rate-limit burst (0 = derived from -tenant-rate)")
	retainJobs := flag.Int("retain-jobs", 0, "terminal job records kept for GET /jobs/{id} (0 = default 1024)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful drain bound on SIGTERM/SIGINT")
	peers := flag.String("peers", "", "comma-separated peer base URLs; non-empty joins the cluster tier")
	nodeID := flag.String("node-id", "", "this node's advertised base URL (cluster mode; defaults from -addr)")
	gossipInterval := flag.Duration("gossip-interval", 100*time.Millisecond, "cluster load-exchange interval")
	policy := cluster.Policy{}.WithDefaults()
	forwardThreshold := flag.Int("forward-threshold", policy.ForwardThreshold, "minimum load gap before forwarding queued jobs to a colder peer")
	forwardBatch := flag.Int("forward-batch", policy.Batch, "max jobs moved per rebalance or steal")
	storeDir := flag.String("store-dir", "", "persistent job-store directory; restarts on the same directory recover results, re-queue unstarted jobs, and restore the DSL program cache")
	replay := flag.Bool("replay", false, "list every record in -store-dir and exit (no server)")
	maxPrograms := flag.Int("max-programs", 0, "DSL compile cache entry cap (0 = default 256)")
	flag.Parse()

	if !wsrt.ValidStealPolicy(*stealPolicy) {
		fmt.Fprintf(os.Stderr, "adaptivetc-serve: unknown -steal-policy %q (have %v)\n",
			*stealPolicy, wsrt.StealPolicyNames())
		os.Exit(2)
	}

	if *replay {
		if *storeDir == "" {
			fmt.Fprintln(os.Stderr, "adaptivetc-serve: -replay requires -store-dir")
			os.Exit(2)
		}
		if err := replayStore(*storeDir); err != nil {
			fmt.Fprintf(os.Stderr, "adaptivetc-serve: replay: %v\n", err)
			os.Exit(1)
		}
		return
	}

	var journal *jobstore.Store
	var recovered *jobstore.Recovery
	if *storeDir != "" {
		var err error
		journal, recovered, err = jobstore.Open(*storeDir, jobstore.Config{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "adaptivetc-serve: open job store: %v\n", err)
			os.Exit(1)
		}
		defer journal.Close()
		fmt.Printf("adaptivetc-serve: job store %s: %d records (%d jobs, %d programs, %d corrupt frames%s)\n",
			*storeDir, recovered.Records, len(recovered.Jobs), len(recovered.Programs), recovered.Corrupt,
			map[bool]string{true: ", torn tail repaired", false: ""}[recovered.TruncatedTail])
	}

	svc := serve.New(serve.Config{
		Journal:           journal,
		Recovered:         recovered,
		ProgramCache:      progstore.Config{MaxPrograms: *maxPrograms},
		Workers:           *workers,
		QueueCapacity:     *queue,
		MaxConcurrentJobs: *maxJobs,
		Check:             *check,
		RetainJobs:        *retainJobs,
		TenantDefaults: serve.TenantLimits{
			MaxInFlight: *tenantQuota,
			RatePerSec:  *tenantRate,
			Burst:       *tenantBurst,
		},
		Options: sched.Options{
			Seed:          *seed,
			GrowableDeque: *growable,
			RelaxedDeque:  *relaxed,
			StealPolicy:   *stealPolicy,
		},
	})

	mux := serve.NewMux(svc)
	var node *cluster.Node
	var peerList []string
	if *peers != "" {
		self := *nodeID
		if self == "" {
			var err error
			if self, err = advertisedURL(*addr); err != nil {
				fmt.Fprintf(os.Stderr, "adaptivetc-serve: -node-id from -addr: %v\n", err)
				os.Exit(2)
			}
		}
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, strings.TrimSuffix(p, "/"))
			}
		}
		node = cluster.NewNode(cluster.Config{
			Self:           strings.TrimSuffix(self, "/"),
			Peers:          peerList,
			GossipInterval: *gossipInterval,
			Policy:         cluster.Policy{ForwardThreshold: *forwardThreshold, Batch: *forwardBatch},
		}, svc, nil)
		cluster.Mount(mux, node)
		node.Start()
	}

	// ReadHeaderTimeout drops clients that connect and never send a request.
	// Deliberately no WriteTimeout: its clock starts when the request headers
	// have been read, so it would cut off a ?wait= long-poll that is held, by
	// design, for up to 30s before its first byte is written.
	server := &http.Server{Addr: *addr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- server.ListenAndServe() }()

	fmt.Printf("adaptivetc-serve: listening on %s (workers=%d queue=%d max-concurrent-jobs=%d steal-policy=%s relaxed-deque=%v check=%v tenant-quota=%d tenant-rate=%.1f)\n",
		*addr, *workers, *queue, *maxJobs, *stealPolicy, *relaxed, *check, *tenantQuota, *tenantRate)
	if node != nil {
		fmt.Printf("adaptivetc-serve: cluster node %s with %d peer(s), gossip every %v, forward-threshold %d\n",
			node.Snapshot().Self, len(peerList), *gossipInterval, *forwardThreshold)
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Printf("adaptivetc-serve: %v, draining (up to %v)\n", sig, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		if err := svc.Drain(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "adaptivetc-serve: drain incomplete: %v\n", err)
		}
		cancel()
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "adaptivetc-serve: %v\n", err)
			if node != nil {
				node.Stop()
			}
			svc.Close()
			os.Exit(1)
		}
	}

	// Close before Shutdown: Close settles whatever the drain left live,
	// which answers every long-poll still waiting on it, so Shutdown finds
	// handlers that are finishing rather than ones held until their bound.
	if node != nil {
		node.Stop()
	}
	svc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = server.Shutdown(ctx)

	m := svc.Snapshot()
	fmt.Printf("adaptivetc-serve: served %d jobs (%d completed, %d cancelled, %d failed, %d rejected, %d rate-limited, %d over-quota)\n",
		m.Submitted, m.Completed, m.Cancelled, m.Failed, m.Rejected, m.RateLimited, m.QuotaRejected)
	if node != nil {
		fmt.Printf("adaptivetc-serve: cluster: forwarded_out=%d forwarded_in=%d forward_rejected=%d\n",
			m.ForwardedOut, m.ForwardedIn, m.ForwardRejected)
	}
	if m.InvariantChecked > 0 {
		fmt.Printf("adaptivetc-serve: invariant checks: %d run, %d violations\n",
			m.InvariantChecked, m.InvariantViolations)
		if m.InvariantViolations > 0 {
			os.Exit(1)
		}
	}
}
