// The HTTP/JSON transport and the cluster endpoints mounted on a node's
// service mux:
//
//	GET  /cluster/load     this node's LoadReport (gossip pull)
//	POST /cluster/forward  accept one forwarded job (ForwardRequest →
//	                       ForwardReply; 429 + Retry-After when full, the
//	                       counter lands in forward_rejected, not rejected)
//	POST /cluster/steal    shed up to Max queued jobs to the thief
//	                       (StealRequest → StealReply)
//	GET  /cluster/stats    node counters and peer views (debugging/smoke)
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"adaptivetc/internal/serve"
	"adaptivetc/internal/wsrt"
)

// Mount adds the cluster endpoints to mux.
func Mount(mux *http.ServeMux, n *Node) {
	writeJSON := func(w http.ResponseWriter, code int, v any) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		_ = json.NewEncoder(w).Encode(v)
	}

	mux.HandleFunc("GET /cluster/load", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, n.loadReport())
	})

	mux.HandleFunc("POST /cluster/forward", func(w http.ResponseWriter, r *http.Request) {
		var fr ForwardRequest
		if err := json.NewDecoder(r.Body).Decode(&fr); err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		reply, err := n.acceptForward(fr)
		switch {
		case errors.Is(err, wsrt.ErrQueueFull):
			// This node's own hint; the origin never relays it to a client.
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusTooManyRequests, map[string]string{"error": err.Error()})
		case errors.Is(err, serve.ErrDraining), errors.Is(err, wsrt.ErrPoolClosed):
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": err.Error()})
		case err != nil:
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		default:
			writeJSON(w, http.StatusAccepted, reply)
		}
	})

	mux.HandleFunc("POST /cluster/steal", func(w http.ResponseWriter, r *http.Request) {
		var sr StealRequest
		if err := json.NewDecoder(r.Body).Decode(&sr); err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		if sr.Thief == "" {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "cluster: steal needs a thief URL"})
			return
		}
		writeJSON(w, http.StatusOK, n.serveSteal(sr))
	})

	mux.HandleFunc("GET /cluster/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, n.Snapshot())
	})
}

// HTTPTransport is the real node-to-node wire: JSON over the peers' serve
// muxes.
type HTTPTransport struct {
	client *http.Client
	// statusQuery is the ?wait= Status sends: half the client timeout, so
	// the peer's answer at the bound still arrives before the client gives
	// the call up as failed.
	statusQuery string
}

// NewHTTPTransport builds the transport. timeout bounds each call (zero
// means 2s); per-call contexts tighten it further.
func NewHTTPTransport(timeout time.Duration) *HTTPTransport {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	return &HTTPTransport{
		client:      &http.Client{Timeout: timeout},
		statusQuery: "?wait=" + (timeout / 2).String(),
	}
}

// getJSON/postJSON do one call and decode the reply into out.
func (t *HTTPTransport) getJSON(ctx context.Context, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	return t.do(req, out)
}

func (t *HTTPTransport) postJSON(ctx context.Context, url string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return t.do(req, out)
}

func (t *HTTPTransport) do(req *http.Request, out any) error {
	resp, err := t.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		err := fmt.Errorf("cluster: %s %s: %s: %s", req.Method, req.URL.Path, resp.Status, bytes.TrimSpace(b))
		if resp.StatusCode == http.StatusTooManyRequests {
			return fmt.Errorf("%w: %w", wsrt.ErrQueueFull, err)
		}
		return err
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Load implements Transport.
func (t *HTTPTransport) Load(ctx context.Context, peer string) (LoadReport, error) {
	var r LoadReport
	err := t.getJSON(ctx, peer+"/cluster/load", &r)
	return r, err
}

// Forward implements Transport.
func (t *HTTPTransport) Forward(ctx context.Context, peer string, fr ForwardRequest) (ForwardReply, error) {
	var r ForwardReply
	err := t.postJSON(ctx, peer+"/cluster/forward", fr, &r)
	return r, err
}

// Steal implements Transport.
func (t *HTTPTransport) Steal(ctx context.Context, peer string, sr StealRequest) (StealReply, error) {
	var r StealReply
	err := t.postJSON(ctx, peer+"/cluster/steal", sr, &r)
	return r, err
}

// Status implements Transport: a long-poll on the peer's job API, which
// answers when the job settles or after half the client timeout.
func (t *HTTPTransport) Status(ctx context.Context, peer, jobID string) (serve.JobStatus, error) {
	var st serve.JobStatus
	err := t.getJSON(ctx, peer+"/jobs/"+jobID+t.statusQuery, &st)
	return st, err
}

// Cancel implements Transport.
func (t *HTTPTransport) Cancel(ctx context.Context, peer, jobID string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, peer+"/jobs/"+jobID, nil)
	if err != nil {
		return err
	}
	return t.do(req, nil)
}
