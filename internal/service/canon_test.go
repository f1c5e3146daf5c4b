package service

import (
	"encoding/json"
	"testing"

	"repro/wcet"
)

// TestRequestKeyPinned pins the cache keys of fixed requests, as a v1
// request and as a v2 one: the bytes requestKey hashes are part of the
// result cache's contract (a restarted or upgraded daemon must address
// the same entries), so a rendering change that moves any key fails here
// even when every invariance test still passes.
func TestRequestKeyPinned(t *testing.T) {
	want := map[string][2]string{
		"basic_scenario1": {
			"e8472abca1da636768e97961b2972f6d4fb46e894d72345c4c126668799997f5",
			"1ccb75f34de3eebe29178b723ad3969c81079d4b1c1a79b53f44c4dc1dee8c93",
		},
		"scenario2_budget": {
			"a13493aaa714cb6b5d22a1fbb72f69df8b12133a142365ae1ec14f6d1ae5b89a",
			"c565470d8b41cfcb3cba2e3914856289dd74058650e1d1c78761c98e27442de7",
		},
		"drop_contender_info": {
			"75729142f725fb4ed589dfaa2ae12e61f26aa39b6e0590793f716a5c89d18425",
			"835c16d8cfa58e281000c903a533cf1a84fb1f4dac4b855f754092cc53d24fc0",
		},
		"two_contenders": {
			"1ac33b44ee31543376a56d5257e455be76cdc3950980da78732010a15d4c7dbb",
			"9f051f0d9ae1778086e5130f8eb302d3c49738ba25a6cb8609bd7a5e15a5b828",
		},
		"rta_default_model": {
			"e1c049bb85dbffbb4bdd490282ca4b902df2712366a1c7f257620044c346d59a",
			"8fd117f56e15e446a124b1bb6fb8881faf957dff9c82d251f7796dd6521d34a6",
		},
		"rta_ftc_model": {
			"c78eb7172592853b4e8dcbe43be033c407c765b0c78d6a36410bab94625159b5",
			"422ae33da9b0dd5a3dcf242026e02b98ff762f754a4e393af280742caf89ef8c",
		},
		"v2_three_contenders": {
			"e6232940227f78287eed4a8017bc60ba9fd63c44d9d1240e44596f9fe596eaa3",
			"7a3e9e5c0bc525116f0306b0f2fbcc067175524121a1b66b87ab6876ec620903",
		},
		"v2_templates": {
			"4014ae521a5ecbfb2438a565929f2bbf91e8b336c49e0005c9fa9676dda60d1e",
			"969cbe22c3b40c37be34a245e91452476b0d92a9a7aa8e76e2ce4e1781f08325",
		},
		"v2_ptacs": {
			"69f7561f252d1c18c105f07c84e3f624bdfafd1a579cc1f67b3f332274e3664f",
			"7837e8b4e4906fabeb3a350eabd05410156bc080f3b77be451174b873689c0dc",
		},
	}
	reg := wcet.DefaultRegistry()
	for _, c := range keyPinCases() {
		var req V2Request
		if err := json.Unmarshal([]byte(c.body), &req); err != nil {
			t.Fatal(err)
		}
		if got := requestKey(reg, apiV1, req); got != want[c.name][0] {
			t.Errorf("%s: v1 key %s, want %s", c.name, got, want[c.name][0])
		}
		if got := requestKey(reg, apiV2, req); got != want[c.name][1] {
			t.Errorf("%s: v2 key %s, want %s", c.name, got, want[c.name][1])
		}
	}
}

// keyPinCases are the requests whose cache keys TestRequestKeyPinned
// pins: the golden /v1 conversations plus v2 shapes with unordered
// contenders, templates and PTAC maps.
func keyPinCases() []struct{ name, body string } {
	cases := make([]struct{ name, body string }, 0, len(goldenRequests)+3)
	for _, g := range goldenRequests {
		cases = append(cases, struct{ name, body string }{g.name, g.body})
	}
	return append(cases,
		struct{ name, body string }{"v2_three_contenders", `{
  "scenario": 2, "models": ["ILP-PTAC", "ftc"],
  "analysed":   {"CCNT": 301000, "PS": 40000, "DS": 51000, "PM": 6100, "DMC": 1200, "DMD": 400},
  "contenders": [
    {"CCNT": 500000, "PS": 50000, "DS": 60000, "PM": 8000},
    {"CCNT": 220000, "PS": 21000, "DS": 16000, "PM": 2500, "DMC": 7},
    {"CCNT": 500000, "PS": 50000, "DS": 60000, "PM": 800}
  ]
}`},
		struct{ name, body string }{"v2_templates", `{
  "scenario": 2, "models": ["templatePtac", "ilpPtac"],
  "analysed":   {"CCNT": 301000, "PS": 40000, "DS": 51000, "PM": 6100, "DMC": 1200, "DMD": 400},
  "templates": [
    {"name": "brakeCtl", "maxRequests": {"pf0/co": 120, "pf0/da": 7, "lmu/da": 40, "pf1/co": 3}},
    {"name": "airbag\"Ctl", "maxRequests": {"lmu/da": 4}},
    {"name": "abs", "maxRequests": {}}
  ]
}`},
		struct{ name, body string }{"v2_ptacs", `{
  "scenario": 1, "models": ["ideal"],
  "analysed":   {"CCNT": 157800, "PS": 18000, "DS": 27000, "PM": 3000},
  "analysedPtac": {"pf0/co": 300, "dfl/da": 25, "pf0/da": 1},
  "contenderPtacs": [{"pf1/co": 500, "lmu/da": 9}, {"pf0/co": 12}, {}]
}`},
	)
}
