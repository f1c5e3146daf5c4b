// Package service is the serving layer over the repro/wcet SDK: the
// request/response API shared by the cmd/wcet CLI and the cmd/wcetd
// daemon, request canonicalization and content-addressed result caching,
// and an HTTP server with admission control that fans batch requests out
// across the campaign engine's worker pool.
//
// The industrial workflow the paper motivates — an OEM integrating tasks
// from many software providers, each needing contention-aware WCET
// verdicts from DSU readings — is a query stream, not a one-shot
// computation. This package turns the models into a service for that
// stream while guaranteeing the daemon and the CLI can never drift: both
// decode requests with DecodeRequest, evaluate them with the same prepare
// and evaluate steps, and encode responses with EncodeJSON, so for the
// same input they emit byte-identical JSON (asserted by tests). The wire
// codec is encoding/json's, with unknown fields rejected; the analysis
// requests and responses, decoded and encoded on every query, are served
// by a direct decoder and encoder that produce its values, errors and
// bytes (fuzzed against it), and encoding/json handles every input the
// direct decoder does not take and every other payload.
//
// There is one analysis path. /v2/analyze is generic over the wcet model
// registry: callers select any subset of registered models by name, so a
// newly registered ContentionModel is servable with no change to this
// package. /v1 is served as the fixed-pair view of /v2: a v1 request maps
// field-for-field onto a v2 request with no models, which selects the
// fTC and ILP-PTAC pair. Both versions go through one validation
// (V2Request.Prepare), one cache-key rendering and one evaluation; the v1
// response is the projection of the v2 result onto its two fields, and
// that frozen wire format is pinned byte-for-byte by golden fixtures.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/dsu"
	"repro/wcet"
)

// Request is one WCET-analysis query: the scenario the deployment is
// configured under, the analysed task's isolation readings, and the
// readings of its future contenders. It is the wire format of the
// cmd/wcet CLI, of wcetd's single-estimate endpoint, and of each element
// of wcetd's batch endpoint.
type Request struct {
	Scenario   int            `json:"scenario"`
	Analysed   dsu.Readings   `json:"analysed"`
	Contenders []dsu.Readings `json:"contenders"`
	// StallMode is "budget" (default) or "exact".
	StallMode string `json:"stallMode,omitempty"`
	// DropContenderInfo computes the fully time-composable ILP variant.
	DropContenderInfo bool `json:"dropContenderInfo,omitempty"`
	// RTA, when present, additionally requests a fixed-priority
	// response-time-analysis verdict for the analysed task among the
	// given co-resident tasks, using one of the computed WCET bounds.
	RTA *RTARequest `json:"rta,omitempty"`
}

// RTATask describes one periodic task for the RTA step. For the analysed
// task WCETCycles is ignored — it is filled in from the selected model's
// bound; co-resident tasks must state theirs.
type RTATask struct {
	Name           string `json:"name"`
	WCETCycles     int64  `json:"wcetCycles,omitempty"`
	PeriodCycles   int64  `json:"periodCycles"`
	DeadlineCycles int64  `json:"deadlineCycles,omitempty"`
	Priority       int    `json:"priority"`
}

// RTARequest asks for a schedulability verdict on the analysed task's
// core.
type RTARequest struct {
	// Model selects which bound becomes the analysed task's WCET:
	// "ilpPtac" (default — the paper's tighter, partially
	// time-composable bound) or "ftc".
	Model string `json:"model,omitempty"`
	// Task is the analysed task's timing parameters; its WCETCycles is
	// filled from the selected model.
	Task RTATask `json:"task"`
	// Others are the co-resident tasks on the same core, with their own
	// (already contention-aware) WCETs.
	Others []RTATask `json:"others,omitempty"`
}

// EstimateOut is one model's bound in wire form.
type EstimateOut struct {
	Model            string  `json:"model"`
	IsolationCycles  int64   `json:"isolationCycles"`
	ContentionCycles int64   `json:"contentionCycles"`
	WCETCycles       int64   `json:"wcetCycles"`
	Ratio            float64 `json:"ratio"`
}

// RTAResultOut is one task's response-time-analysis outcome in wire form.
type RTAResultOut struct {
	Task           string `json:"task"`
	ResponseCycles int64  `json:"responseCycles"`
	Schedulable    bool   `json:"schedulable"`
}

// RTAOut is the schedulability verdict for the analysed task's core.
type RTAOut struct {
	// Model names the bound used as the analysed task's WCET.
	Model string `json:"model"`
	// WCETCycles is that bound's value.
	WCETCycles int64 `json:"wcetCycles"`
	// Utilization is Σ C_i / T_i over the whole task set.
	Utilization float64 `json:"utilization"`
	// Schedulable reports whether every task meets its deadline.
	Schedulable bool           `json:"schedulable"`
	Results     []RTAResultOut `json:"results"`
}

// Response is the analysis result: both bounds, plus the RTA verdict when
// one was requested.
type Response struct {
	FTC EstimateOut `json:"ftc"`
	ILP EstimateOut `json:"ilpPtac"`
	RTA *RTAOut     `json:"rta,omitempty"`
}

// Validate rejects malformed requests before any model runs: unknown
// scenarios and stall modes, impossible DSU readings (negative counters,
// stalls or miss counts exceeding CCNT), and nonsensical RTA parameters.
// It is Prepare on the request's v2 view, against the default registry.
func (r Request) Validate() error {
	_, err := r.asV2().prepare(defaultAnalyzer.Registry(), apiV1)
	return err
}

// asV2 is the v2 request a v1 request is the view of: the same fields and
// no models, so Prepare selects the fixed pair.
func (r Request) asV2() V2Request {
	return V2Request{
		Scenario:          r.Scenario,
		Analysed:          r.Analysed,
		Contenders:        r.Contenders,
		StallMode:         r.StallMode,
		DropContenderInfo: r.DropContenderInfo,
		RTA:               r.RTA,
	}
}

// decodeStrict is the one decode policy for every payload shape the
// service accepts: unknown fields rejected, uniform error wrapping. It is
// the definition the analysis shapes' direct decoder (decodeDirect) is
// held to: that decoder serves the inputs inside its parser's subset
// itself and passes the rest here, so every accepted value and every
// error text is this function's.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("parsing request: %w", err)
	}
	return nil
}

// DecodeRequest reads one JSON request, rejecting unknown fields — the
// CLI's historical strictness, now shared with the daemon. Like
// json.Decoder it stops reading once the request is complete, so it
// returns on a stream that stays open after one request.
func DecodeRequest(r io.Reader) (Request, error) {
	return decodeDirect(r, parseV1)
}

// EncodeJSON writes v exactly as the cmd/wcet CLI always has: two-space
// indent, trailing newline, in one Write. Byte-identical CLI/daemon
// output depends on every producer funnelling through here. The
// definition is encoding/json's Encoder with SetIndent("", "  "); the
// analysis responses (*Response, *V2Response) are written directly in
// its bytes, and every other value, or a response it would refuse, goes
// through it.
func EncodeJSON(w io.Writer, v any) error {
	buf, ok := w.(*bytes.Buffer)
	if !ok {
		buf = getEncodeBuf()
		defer putEncodeBuf(buf)
		if err := EncodeJSON(buf, v); err != nil {
			return err
		}
		_, err := w.Write(buf.Bytes())
		return err
	}
	if b, ok := appendAnalysis(buf.AvailableBuffer(), v); ok {
		buf.Write(b)
		return nil
	}
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// scenario maps the wire scenario number to the SDK tailoring.
func scenario(n int) (wcet.Scenario, error) {
	switch n {
	case 1:
		return wcet.Scenario1(), nil
	case 2:
		return wcet.Scenario2(), nil
	default:
		return wcet.Scenario{}, fmt.Errorf("scenario must be 1 or 2, got %d", n)
	}
}

// stallMode maps the wire stall-mode string to the ILP option.
func stallMode(s string) (wcet.StallMode, error) {
	switch s {
	case "", "budget":
		return wcet.StallBudget, nil
	case "exact":
		return wcet.StallExact, nil
	default:
		return 0, fmt.Errorf("stallMode must be budget or exact, got %q", s)
	}
}

// v1Models is the fixed pair every /v1 evaluation computes; the frozen v1
// wire format has one field per member.
var v1Models = [2]string{"ftc", "ilpPtac"}

// defaultAnalyzer backs the CLI path (Validate, Evaluate, RunCLIV2): the
// shared default registry, the TC27x characterisation, the frozen v1
// model pair.
var defaultAnalyzer = wcet.MustNewAnalyzer()

// apiVersion is the wire version a request arrived on. It tags the cache
// key, so /v1 and /v2 never share an entry, and it picks the response
// shape evaluate projects the SDK result onto.
type apiVersion string

const (
	apiV1 apiVersion = "v1"
	apiV2 apiVersion = "v2"
)

func toRTATask(t RTATask) wcet.RTATask {
	return wcet.RTATask{
		Name:     t.Name,
		WCET:     t.WCETCycles,
		Period:   t.PeriodCycles,
		Deadline: t.DeadlineCycles,
		Priority: t.Priority,
	}
}

// Evaluate runs the frozen v1 pair — the fTC and ILP-PTAC models — and
// the optional RTA step on one request, through the default SDK analyzer.
// It is a pure function of the request: the CLI calls it once per process,
// the daemon runs the same prepare and evaluate per cache miss.
func Evaluate(req Request) (*Response, error) {
	sdkReq, err := req.asV2().prepare(defaultAnalyzer.Registry(), apiV1)
	if err != nil {
		return nil, err
	}
	resp, err := evaluate(context.Background(), defaultAnalyzer, sdkReq, apiV1)
	if err != nil {
		return nil, err
	}
	return resp.(*Response), nil
}

// evaluate is the one evaluation behind every analysis front end: it runs
// an already-prepared request through the analyzer and shapes the result
// for the version the request arrived on. v2 lists the selected estimates
// in request order; v1 is the projection of the fixed pair Prepare
// selected, Estimates[0] being ftc and Estimates[1] ilpPtac. ctx carries
// the trace spans and stops the solve: a stopped evaluation fails with an
// error that wraps ctx.Err().
func evaluate(ctx context.Context, an *wcet.Analyzer, sdkReq wcet.Request, v apiVersion) (any, error) {
	res, err := an.Analyze(ctx, sdkReq)
	if err != nil {
		return nil, err
	}
	var rtaOut *RTAOut
	if res.RTA != nil {
		rtaOut = toRTAOut(res.RTA)
	}
	if v == apiV1 {
		return &Response{
			FTC: toEstimateOut(res.Estimates[0].Estimate),
			ILP: toEstimateOut(res.Estimates[1].Estimate),
			RTA: rtaOut,
		}, nil
	}
	out := &V2Response{Estimates: make([]V2Estimate, len(res.Estimates)), RTA: rtaOut}
	for i, e := range res.Estimates {
		out.Estimates[i] = V2Estimate{
			Name:             e.Name,
			Model:            e.Model,
			IsolationCycles:  e.IsolationCycles,
			ContentionCycles: e.ContentionCycles,
			WCETCycles:       e.WCET(),
			Ratio:            e.Ratio(),
		}
	}
	return out, nil
}

// toRTAOut maps the SDK verdict onto its wire form.
func toRTAOut(v *wcet.RTAVerdict) *RTAOut {
	out := &RTAOut{
		Model:       v.Model,
		WCETCycles:  v.WCETCycles,
		Utilization: v.Utilization,
		Schedulable: v.Schedulable,
		Results:     make([]RTAResultOut, len(v.Results)),
	}
	for i, r := range v.Results {
		out.Results[i] = RTAResultOut{
			Task:           r.Task,
			ResponseCycles: r.Response,
			Schedulable:    r.Schedulable,
		}
	}
	return out
}

func toEstimateOut(e wcet.Estimate) EstimateOut {
	return EstimateOut{
		Model:            e.Model,
		IsolationCycles:  e.IsolationCycles,
		ContentionCycles: e.ContentionCycles,
		WCETCycles:       e.WCET(),
		Ratio:            e.Ratio(),
	}
}

// RunCLI is cmd/wcet's whole behaviour: decode one request from in,
// evaluate it, write the response to out. The daemon serves the same
// three calls per request, which is what keeps the two front-ends
// byte-identical.
func RunCLI(in io.Reader, out io.Writer) error {
	req, err := DecodeRequest(in)
	if err != nil {
		return err
	}
	resp, err := Evaluate(req)
	if err != nil {
		return err
	}
	return EncodeJSON(out, resp)
}
