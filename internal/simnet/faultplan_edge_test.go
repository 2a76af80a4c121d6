package simnet

import (
	"math"
	"strings"
	"testing"
)

// TestParseFaultPlanEdgeCases pins the parser's behaviour on the awkward
// inputs a hand-typed -faults flag actually produces: empty fragments,
// duplicate targets, boundary times, overlapping windows, and syntax that
// is almost-but-not-quite right. Entries that parse are additionally
// validated against a 4-rank world so parse-time and validate-time
// rejections stay distinguishable.
func TestParseFaultPlanEdgeCases(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name     string
		spec     string
		parseErr string // substring of the expected parse error ("" = parses)
		valErr   string // substring of the expected Validate(4) error ("" = valid)
		check    func(t *testing.T, p *FaultPlan)
	}{
		{
			name: "empty plan", spec: "", parseErr: "empty fault plan",
		},
		{
			name: "only separators", spec: " , ,, ", parseErr: "empty fault plan",
		},
		{
			name: "duplicate rank crashes",
			spec: "crash:1@5,crash:1@9",
			check: func(t *testing.T, p *FaultPlan) {
				// Two crashes on one rank are legal: the first kill wins, the
				// second is a fired-but-moot entry. Both must survive parsing.
				if len(p.Faults) != 2 || p.Faults[0].Rank != 1 || p.Faults[1].Rank != 1 {
					t.Fatalf("faults = %+v", p.Faults)
				}
			},
		},
		{
			name: "crash at time zero",
			spec: "crash:0@0",
			check: func(t *testing.T, p *FaultPlan) {
				// Epoch-0 crash: arms immediately; CrashDue must report it on
				// the very first collective, before any clock advance.
				c := NewCluster(4, XC40Params())
				if err := c.SetFaultPlan(p); err != nil {
					t.Fatal(err)
				}
				if !c.CrashDue(0) {
					t.Error("crash at t=0 did not fire on the first poll")
				}
				if c.CrashDue(0) {
					t.Error("crash fired twice")
				}
			},
		},
		{
			name: "overlapping slow windows compound",
			spec: "slow:0@10+20x2,slow:0@15+20x3",
			check: func(t *testing.T, p *FaultPlan) {
				c := NewCluster(4, XC40Params())
				if err := c.SetFaultPlan(p); err != nil {
					t.Fatal(err)
				}
				// Walk rank 0's clock into the overlap [15,30): both windows
				// apply, so effective speed is divided by 2*3.
				c.AddSeconds(0, 20)
				c.mu.Lock()
				got := c.effectiveSpeed(0)
				c.mu.Unlock()
				if want := 1.0 / 6; math.Abs(got-want) > 1e-9*want {
					t.Errorf("overlapped speed = %g, want %g (compounded /6)", got, want)
				}
			},
		},
		{
			name: "whitespace around entries",
			spec: "  crash:2@350 ,\tslow:0@100+50x4  ",
			check: func(t *testing.T, p *FaultPlan) {
				if len(p.Faults) != 2 {
					t.Fatalf("parsed %d faults, want 2", len(p.Faults))
				}
			},
		},
		{
			name: "trailing comma", spec: "crash:1@5,",
			check: func(t *testing.T, p *FaultPlan) {
				if len(p.Faults) != 1 {
					t.Fatalf("parsed %d faults, want 1", len(p.Faults))
				}
			},
		},
		{name: "missing kind separator", spec: "crash2@350", parseErr: "want kind:rank@time"},
		{name: "unknown kind", spec: "explode:0@1", parseErr: "unknown fault kind"},
		{name: "missing time", spec: "crash:0", parseErr: "missing @time"},
		{name: "fractional rank", spec: "crash:1.5@3", parseErr: "bad rank"},
		{name: "empty rank", spec: "crash:@3", parseErr: "bad rank"},
		{name: "slow without window", spec: "slow:0@100", parseErr: "want @time+durationxfactor"},
		{name: "slow without factor", spec: "slow:0@100+50", parseErr: "duration x factor"},
		{name: "garbage duration", spec: "delay:0@1+abcx2", parseErr: "bad duration"},
		{name: "garbage factor", spec: "delay:0@1+5xtwo", parseErr: "bad factor"},
		{
			// ParseFloat accepts "NaN"/"Inf" spellings, so these survive
			// parsing; Validate is the chokepoint that must reject them.
			name: "NaN crash time", spec: "crash:0@NaN", valErr: "non-finite trigger time",
		},
		{name: "Inf crash time", spec: "crash:0@+Inf", valErr: "non-finite trigger time"},
		{name: "NaN duration", spec: "slow:0@1+NaNx2", valErr: "positive finite duration"},
		{name: "Inf duration", spec: "slow:0@1+Infx2", valErr: "positive finite duration"},
		{name: "NaN factor", spec: "slow:0@1+5xNaN", valErr: "finite factor"},
		{name: "Inf factor", spec: "delay:0@1+5xInf", valErr: "finite factor"},
		{name: "negative duration", spec: "slow:0@1+-3x2", valErr: "positive finite duration"},
		{name: "sub-unit factor", spec: "slow:0@1+3x0.25", valErr: "factor >= 1"},
		{name: "rank beyond world", spec: "crash:4@1", valErr: "world has 4"},
		{name: "negative rank", spec: "crash:-1@1", valErr: "targets rank -1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			p, err := ParseFaultPlan(tc.spec)
			if tc.parseErr != "" {
				if err == nil {
					t.Fatalf("ParseFaultPlan(%q) accepted, want error containing %q", tc.spec, tc.parseErr)
				}
				if !strings.Contains(err.Error(), tc.parseErr) {
					t.Fatalf("parse error %q does not contain %q", err, tc.parseErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("ParseFaultPlan(%q): %v", tc.spec, err)
			}
			verr := p.Validate(4)
			if tc.valErr != "" {
				if verr == nil {
					t.Fatalf("Validate accepted %q, want error containing %q", tc.spec, tc.valErr)
				}
				if !strings.Contains(verr.Error(), tc.valErr) {
					t.Fatalf("validate error %q does not contain %q", verr, tc.valErr)
				}
				return
			}
			if verr != nil {
				t.Fatalf("Validate rejected %q: %v", tc.spec, verr)
			}
			if tc.check != nil {
				tc.check(t, p)
			}
		})
	}
}
