package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"adaptivetc/internal/sched"
)

// The package's submit→done round trip, in process and over HTTP, on the
// serve-http benchmark's smallest job. Allocations per op are the number
// to watch (ROADMAP 1(c)); DESIGN §19 records the baseline.

func benchService(b *testing.B) *Service {
	s := New(Config{Workers: 2, QueueCapacity: 64, Options: sched.Options{GrowableDeque: true}})
	b.Cleanup(s.Close)
	return s
}

// BenchmarkSubmitDone is Submit followed by a receive on Done.
func BenchmarkSubmitDone(b *testing.B) {
	s := benchService(b)
	req := Request{Program: "fib", N: 12}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, err := s.Submit(req)
		if err != nil {
			b.Fatal(err)
		}
		<-j.Done()
		if st, res, err := j.Snapshot(); st != StateDone || res.Value != 144 {
			b.Fatalf("job ended %s value=%d err=%v", st, res.Value, err)
		}
	}
}

// BenchmarkHTTPSubmitWait is the same job as one POST /jobs?wait= over a
// kept-alive loopback connection: request, long-poll and JSON answer.
func BenchmarkHTTPSubmitWait(b *testing.B) {
	srv := httptest.NewServer(NewMux(benchService(b)))
	b.Cleanup(srv.Close)
	client := srv.Client()
	const body = `{"program":"fib","n":12}`
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Post(srv.URL+"/jobs?wait=20s", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusAccepted || !strings.Contains(string(data), `"state": "done"`) {
			b.Fatalf("POST ?wait: %d %v %s", resp.StatusCode, err, data)
		}
	}
}
