package service

import (
	"context"
	"fmt"
	"io"

	"repro/internal/dsu"
	"repro/wcet"
)

// V2Request is the wire format of POST /v2/analyze: the generic,
// registry-driven successor of the v1 request. Callers name any subset of
// registered contention models and get exactly those estimates back, in
// request order; the input side additionally admits contender templates
// and exact PTACs so every registered model is reachable over the wire.
type V2Request struct {
	Scenario int `json:"scenario"`
	// Table selects the latency-table version to analyse under — a named
	// ref ("tc27x/default") or an immutable table ID from the daemon's
	// store; empty selects the serving default. Only the daemon honours
	// it (the CLI has no table store and rejects a selection).
	Table string `json:"table,omitempty"`
	// Models selects registered models by canonical name or alias; empty
	// selects the v1 pair ["ftc", "ilpPtac"].
	Models     []string       `json:"models,omitempty"`
	Analysed   dsu.Readings   `json:"analysed"`
	Contenders []dsu.Readings `json:"contenders,omitempty"`
	// Templates are contender resource-usage contracts (for templatePtac):
	// pledged per-path request budgets keyed by access path ("pf0/co").
	Templates []V2Template `json:"templates,omitempty"`
	// AnalysedPTAC / ContenderPTACs are exact per-target access counts
	// (for ideal), keyed by access path.
	AnalysedPTAC   map[string]int64   `json:"analysedPtac,omitempty"`
	ContenderPTACs []map[string]int64 `json:"contenderPtacs,omitempty"`
	// StallMode is "budget" (default) or "exact".
	StallMode string `json:"stallMode,omitempty"`
	// DropContenderInfo computes the fully time-composable ILP variant.
	DropContenderInfo bool `json:"dropContenderInfo,omitempty"`
	// RTA requests a schedulability verdict; unlike v1, Model may name any
	// model in Models.
	RTA *RTARequest `json:"rta,omitempty"`
}

// V2Template is one contender contract in wire form.
type V2Template struct {
	Name        string           `json:"name"`
	MaxRequests map[string]int64 `json:"maxRequests"`
}

// V2Estimate is one model's bound in v2 wire form: the v1 fields plus the
// canonical registry name the caller selected it by.
type V2Estimate struct {
	Name             string  `json:"name"`
	Model            string  `json:"model"`
	IsolationCycles  int64   `json:"isolationCycles"`
	ContentionCycles int64   `json:"contentionCycles"`
	WCETCycles       int64   `json:"wcetCycles"`
	Ratio            float64 `json:"ratio"`
}

// V2Response is the wire format of a /v2/analyze reply: the selected
// models' estimates in request order.
type V2Response struct {
	Estimates []V2Estimate `json:"estimates"`
	RTA       *RTAOut      `json:"rta,omitempty"`
}

// V2ModelInfo describes one registered model in GET /v2/models.
type V2ModelInfo struct {
	Name    string   `json:"name"`
	Aliases []string `json:"aliases,omitempty"`
}

// V2ModelsResponse is the wire format of GET /v2/models.
type V2ModelsResponse struct {
	Models []V2ModelInfo `json:"models"`
}

// toSDK maps the v2 wire request onto the SDK facade's request, resolving
// wire-level encodings (scenario number, stall-mode string, access-path
// keys). Model names are resolved later by the analyzer so the error
// lists the serving registry's models.
func (r V2Request) toSDK() (wcet.Request, error) {
	sc, err := scenario(r.Scenario)
	if err != nil {
		return wcet.Request{}, err
	}
	mode, err := stallMode(r.StallMode)
	if err != nil {
		return wcet.Request{}, err
	}
	out := wcet.Request{
		Analysed:          r.Analysed,
		Contenders:        r.Contenders,
		Scenario:          sc,
		StallMode:         mode,
		DropContenderInfo: r.DropContenderInfo,
		Models:            r.Models,
	}
	if len(out.Models) == 0 {
		out.Models = v1Models[:]
	}
	for i, tp := range r.Templates {
		budgets, err := parsePTAC(tp.MaxRequests)
		if err != nil {
			return wcet.Request{}, fmt.Errorf("templates[%d] (%s): %w", i, tp.Name, err)
		}
		out.Templates = append(out.Templates, wcet.Template{Name: tp.Name, MaxRequests: budgets})
	}
	if r.AnalysedPTAC != nil {
		p, err := parsePTAC(r.AnalysedPTAC)
		if err != nil {
			return wcet.Request{}, fmt.Errorf("analysedPtac: %w", err)
		}
		out.AnalysedPTAC = p
	}
	for i, m := range r.ContenderPTACs {
		p, err := parsePTAC(m)
		if err != nil {
			return wcet.Request{}, fmt.Errorf("contenderPtacs[%d]: %w", i, err)
		}
		out.ContenderPTACs = append(out.ContenderPTACs, p)
	}
	if r.RTA != nil {
		out.RTA = &wcet.RTASpec{
			Model:  r.RTA.Model,
			Task:   toRTATask(r.RTA.Task),
			Others: make([]wcet.RTATask, len(r.RTA.Others)),
		}
		for i, o := range r.RTA.Others {
			out.RTA.Others[i] = toRTATask(o)
		}
	}
	return out, nil
}

// parsePTAC decodes a wire PTAC map ("pf0/co" keys) into the SDK form,
// rejecting negative counts so they fail pre-admission, not in the solver.
func parsePTAC(m map[string]int64) (wcet.PTAC, error) {
	out := make(wcet.PTAC, len(m))
	for k, v := range m {
		path, err := wcet.ParseAccessPath(k)
		if err != nil {
			return nil, err
		}
		if v < 0 {
			return nil, fmt.Errorf("negative count %d for %s", v, k)
		}
		out[path] = v
	}
	return out, nil
}

// Prepare validates the wire request and converts it to the SDK form in
// one pass, so the serving hot path parses templates and PTAC maps exactly
// once. It rejects before admission: wire-encoding errors (unknown
// scenario, stall mode, access path, negative PTAC or template counts),
// unknown model names (listing the registered set), an rta.model outside
// the selected model set, and impossible readings. Model-specific input
// requirements (e.g. templatePtac with no templates) are the models' own
// errors and surface at evaluation time — the service cannot know them
// for arbitrary registered models.
func (r V2Request) Prepare(reg *wcet.Registry) (wcet.Request, error) {
	return r.prepare(reg, apiV2)
}

// prepare is Prepare for a request that arrived on API version v. A v1
// request is the v2 view with no models, so it goes through every check
// above; the one v1-only difference is the message for an rta.model
// outside the fixed pair, which points the caller at /v2/analyze.
func (r V2Request) prepare(reg *wcet.Registry, v apiVersion) (wcet.Request, error) {
	out, err := r.toSDK()
	if err != nil {
		return wcet.Request{}, err
	}
	if err := r.Analysed.Validate(); err != nil {
		return wcet.Request{}, fmt.Errorf("analysed readings: %w", err)
	}
	for i, b := range r.Contenders {
		if err := b.Validate(); err != nil {
			return wcet.Request{}, fmt.Errorf("contender %d readings: %w", i, err)
		}
	}
	for i, tp := range out.Templates {
		if err := tp.Validate(); err != nil {
			return wcet.Request{}, fmt.Errorf("templates[%d] (%s): %w", i, tp.Name, err)
		}
	}
	selected := make(map[string]bool, len(out.Models))
	for _, name := range out.Models {
		// An explicit empty entry would silently resolve to the registry's
		// ilpPtac default — reject it; omitting "models" entirely is how
		// callers ask for the default pair.
		if name == "" {
			return wcet.Request{}, fmt.Errorf(`models entries must be non-empty (omit "models" for the default pair)`)
		}
		canon, err := reg.Canonical(name)
		if err != nil {
			return wcet.Request{}, err
		}
		// Reject rather than silently collapse: the wire contract promises
		// exactly the selected estimates in request order, and a client
		// zipping its list against the response by index would misread a
		// deduplicated reply.
		if selected[canon] {
			return wcet.Request{}, fmt.Errorf("duplicate model selection %q (canonical %s)", name, canon)
		}
		selected[canon] = true
	}
	if r.RTA != nil {
		canon, err := reg.Canonical(r.RTA.Model)
		if err != nil {
			return wcet.Request{}, fmt.Errorf("rta.model: %w", err)
		}
		if !selected[canon] {
			if v == apiV1 {
				return wcet.Request{}, fmt.Errorf("rta.model: /v1 computes only %s and %s, got %q (use /v2/analyze for other models)", v1Models[0], v1Models[1], r.RTA.Model)
			}
			return wcet.Request{}, fmt.Errorf("rta.model %s is not among the requested models", canon)
		}
		for i, o := range r.RTA.Others {
			if o.WCETCycles <= 0 {
				return wcet.Request{}, fmt.Errorf("rta.others[%d] (%s): wcetCycles must be positive", i, o.Name)
			}
		}
	}
	return out, nil
}

// EvaluateV2 runs the selected models (and the optional RTA step) on one
// v2 request through an analyzer. Like Evaluate it is a pure function of
// the request; the daemon runs the same prepare and evaluate per cache
// miss. A table selection is rejected here: only the daemon carries the
// store that could resolve it (it resolves Table to a content address
// before evaluation instead of calling this helper).
func EvaluateV2(an *wcet.Analyzer, req V2Request) (*V2Response, error) {
	if req.Table != "" {
		return nil, fmt.Errorf(`"table" selection requires the daemon's table store (POST the request to wcetd's /v2/analyze)`)
	}
	sdkReq, err := req.Prepare(an.Registry())
	if err != nil {
		return nil, err
	}
	resp, err := evaluate(context.Background(), an, sdkReq, apiV2)
	if err != nil {
		return nil, err
	}
	return resp.(*V2Response), nil
}

// DecodeV2Request reads one JSON v2 request with the service's strict
// decode policy. Like DecodeRequest, it reads r to its end before it
// decodes.
func DecodeV2Request(r io.Reader) (V2Request, error) {
	return decodeDirect(r, parseV2)
}

// RunCLIV2 is cmd/wcet's -models behaviour: decode one v2-shaped request,
// override its model selection with the flag's list when one was given,
// evaluate through the default analyzer and write the v2 response — the
// same steps wcetd's /v2/analyze serves, so CLI and daemon emit
// byte-identical JSON in v2 mode too. Like RunCLI, it decodes with
// decodeStrict, so it returns on a stdin that stays open.
func RunCLIV2(in io.Reader, out io.Writer, models []string) error {
	var req V2Request
	if err := decodeStrict(in, &req); err != nil {
		return err
	}
	if len(models) > 0 {
		req.Models = models
	}
	resp, err := EvaluateV2(defaultAnalyzer, req)
	if err != nil {
		return err
	}
	return EncodeJSON(out, resp)
}
