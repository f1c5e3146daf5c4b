package service

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"repro/internal/experiments"
	"repro/internal/jobs"
)

// V2CampaignList is the GET /v2/campaigns response.
type V2CampaignList struct {
	Campaigns []jobs.Status `json:"campaigns"`
}

// handleCampaigns serves the /v2/campaigns collection: POST submits a
// job, GET lists jobs newest-first.
func (s *Server) handleCampaigns(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		var spec jobs.Spec
		if err := decodeStrict(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), &spec); err != nil {
			httpError(w, decodeStatus(err), err)
			return
		}
		st, err := s.jobs.Submit(spec, string(s.servingID()))
		if err != nil {
			jobError(w, err)
			return
		}
		writeJSON(w, http.StatusAccepted, st)
	case http.MethodGet:
		writeJSON(w, http.StatusOK, V2CampaignList{Campaigns: s.jobs.List()})
	default:
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST or GET required"))
	}
}

// routeCampaign dispatches /v2/campaigns/{id}[/stream|/artifact]. The
// stream endpoint gets its own instrument label so long-lived SSE
// connections are excluded from the slow-request log, like
// /v2/stats/stream.
func (s *Server) routeCampaign(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v2/campaigns/")
	id, sub, _ := strings.Cut(rest, "/")
	if id == "" {
		httpError(w, http.StatusNotFound, fmt.Errorf("campaign id required"))
		return
	}
	switch sub {
	case "":
		s.instrument("v2_campaigns_id", false, func(w http.ResponseWriter, r *http.Request) {
			s.handleCampaignByID(w, r, id)
		})(w, r)
	case "artifact":
		s.instrument("v2_campaign_artifact", false, func(w http.ResponseWriter, r *http.Request) {
			s.handleCampaignArtifact(w, r, id)
		})(w, r)
	case "stream":
		s.instrument("v2_campaign_stream", false, func(w http.ResponseWriter, r *http.Request) {
			s.handleCampaignStream(w, r, id)
		})(w, r)
	default:
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown campaign subresource %q", sub))
	}
}

// handleCampaignByID serves one job: GET status, DELETE cancel.
func (s *Server) handleCampaignByID(w http.ResponseWriter, r *http.Request, id string) {
	switch r.Method {
	case http.MethodGet:
		st, err := s.jobs.Get(id)
		if err != nil {
			jobError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	case http.MethodDelete:
		st, err := s.jobs.Cancel(id)
		if err != nil {
			jobError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	default:
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("GET or DELETE required"))
	}
}

// handleCampaignArtifact serves the finished, content-verified results
// file. The bytes are re-hashed against the artifact's content address
// on every read, so a torn or tampered file is a 500, never a payload.
func (s *Server) handleCampaignArtifact(w http.ResponseWriter, r *http.Request, id string) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("GET required"))
		return
	}
	data, sum, err := s.jobs.Artifact(id)
	if err != nil {
		jobError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("ETag", `"`+sum+`"`)
	// A declared length spares the response its chunked framing.
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	_, _ = w.Write(data)
}

// handleCampaignStream streams a job's progress over SSE: one "cell"
// event per completed cell and a final "state" event, each carrying its
// Seq as the SSE event ID. A reconnecting client sends Last-Event-ID
// (header, or lastEventId query parameter for plain curl) and receives
// exactly the missed suffix — the replay comes from the in-memory event
// log, which survives restarts because it is rebuilt from the
// checkpoint. The job frames its events into the handler's buffer; the
// replay goes out as one flushed write, and each later wake-up writes the
// events logged since in another.
// The stream ends after the terminal event, on client disconnect, or
// when graceful shutdown closes streamDone.
func (s *Server) handleCampaignStream(w http.ResponseWriter, r *http.Request, id string) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("GET required"))
		return
	}
	sse, ok := newSSEWriter(w)
	if !ok {
		return
	}
	afterSeq := 0
	lastID := r.Header.Get("Last-Event-ID")
	if lastID == "" {
		lastID = r.URL.Query().Get("lastEventId")
	}
	if lastID != "" {
		n, err := strconv.Atoi(lastID)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("Last-Event-ID must be a non-negative integer, got %q", lastID))
			return
		}
		afterSeq = n
	}

	st, err := s.jobs.Subscribe(id, afterSeq)
	if err != nil {
		jobError(w, err)
		return
	}
	defer st.Close()

	// The headers go out with the replay in one flush, even when there is
	// nothing to replay yet, so the client observes the stream as open
	// immediately. A finished job's whole stream is that one write.
	sse.open()

	s.metrics.campaignStreams.Add(1)
	defer s.metrics.campaignStreams.Add(-1)

	bufp := frameBufs.Get().(*[]byte)
	buf, ended := st.AppendFrames((*bufp)[:0], appendFrameHead, frameTail)
	defer func() {
		if cap(buf) <= maxPooledFrameBuf {
			*bufp = buf[:0]
			frameBufs.Put(bufp)
		}
	}()
	for {
		if !sse.write(buf) || ended {
			return
		}
		for buf = buf[:0]; len(buf) == 0 && !ended; {
			select {
			case <-r.Context().Done():
				return
			case <-s.streamDone:
				// Graceful shutdown: tell the client the stream is
				// pausing, not that the job ended — it resumes via
				// Last-Event-ID against the restarted daemon.
				sse.send("drain", struct{}{})
				return
			case <-st.Wake():
				buf, ended = st.AppendFrames(buf, appendFrameHead, frameTail)
			}
		}
	}
}

// frameBufs recycles campaign streams' frame buffers; one holds a
// finished job's whole replay.
var frameBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledFrameBuf keeps the buffers of very large replays out of the
// pool.
const maxPooledFrameBuf = 256 << 10

// jobError maps jobs-package errors onto HTTP statuses.
func jobError(w http.ResponseWriter, err error) {
	var gridErr *experiments.GridError
	switch {
	case errors.As(err, &gridErr):
		httpError(w, http.StatusBadRequest, err)
	case errors.Is(err, jobs.ErrTooManyJobs):
		httpError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, jobs.ErrClosed):
		httpError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, jobs.ErrNotFound), errors.Is(err, jobs.ErrNoArtifact):
		httpError(w, http.StatusNotFound, err)
	case errors.Is(err, jobs.ErrArtifactCorrupt):
		httpError(w, http.StatusInternalServerError, err)
	default:
		httpError(w, http.StatusBadRequest, err)
	}
}
