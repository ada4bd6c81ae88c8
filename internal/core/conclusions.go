package core

import (
	"fmt"

	"clustereval/internal/apps/alya"
	"clustereval/internal/machine"
	"clustereval/internal/perfmodel"
	"clustereval/internal/toolchain"
)

// Finding is one conclusion of the paper's Section VI, evaluated against
// the reproduction's own outputs.
type Finding struct {
	Statement string
	Holds     bool
	Evidence  string
}

// Conclusions re-derives the paper's concluding claims from the models and
// reports whether each holds in the reproduction.
func (e *Evaluation) Conclusions() ([]Finding, error) {
	rows, err := e.TableIV()
	if err != nil {
		return nil, err
	}
	byApp := map[string]Row{}
	for _, r := range rows {
		byApp[r.App] = r
	}
	apps := []string{"Alya", "OpenIFS", "Gromacs", "WRF", "NEMO"}

	var out []Finding

	// 1. "Synthetic benchmarks have a speedup of up to 1.7x for LINPACK
	//    and up to 3.4x for HPCG."
	maxLin, maxHPCG := 0.0, 0.0
	for _, c := range byApp["LINPACK"].Cells {
		if !c.NA && !c.NP && c.Speedup > maxLin {
			maxLin = c.Speedup
		}
	}
	for _, c := range byApp["HPCG"].Cells {
		if !c.NA && !c.NP && c.Speedup > maxHPCG {
			maxHPCG = c.Speedup
		}
	}
	out = append(out, Finding{
		Statement: "synthetic benchmarks favour CTE-Arm",
		Holds:     maxLin > 1 && maxHPCG > 1,
		Evidence:  fmt.Sprintf("LINPACK up to %.2fx, HPCG up to %.2fx", maxLin, maxHPCG),
	})

	// 2. "The HPC applications tested suffer a slow-down between 1.6x and
	//    3.4x compared to MareNostrum 4."
	minSlow, maxSlow := 1e9, 0.0
	for _, app := range apps {
		for _, c := range byApp[app].Cells {
			if c.NA || c.NP {
				continue
			}
			slow := 1 / c.Speedup
			if slow < minSlow {
				minSlow = slow
			}
			if slow > maxSlow {
				maxSlow = slow
			}
		}
	}
	out = append(out, Finding{
		Statement: "applications slow down by roughly 1.6x-3.4x",
		Holds:     minSlow >= 1.3 && maxSlow <= 3.8,
		Evidence:  fmt.Sprintf("slowdowns span %.2fx to %.2fx", minSlow, maxSlow),
	})

	// 3. "The compiler could not leverage the SVE unit ... performance is
	//    delivered by the scalar core."
	build, err := toolchain.Compile(toolchain.GNUArmSVE(), e.Arm, "Alya")
	if err != nil {
		return nil, err
	}
	out = append(out, Finding{
		Statement: "GNU-compiled application loops fall back to the scalar core",
		Holds:     build.VectorISA(toolchain.AppLoop) == machine.ISAScalar,
		Evidence:  fmt.Sprintf("app-loop ISA: %s", build.VectorISA(toolchain.AppLoop)),
	})

	// 4. "The weaker scalar core is somewhat compensated by the fast
	//    memory subsystem (e.g. the Solver phase of Alya)."
	ma, err := alya.NewModel(e.Arm, alya.TestCaseB())
	if err != nil {
		return nil, err
	}
	mm, err := alya.NewModel(e.Ref, alya.TestCaseB())
	if err != nil {
		return nil, err
	}
	asmA, solA, _, err := ma.StepTimes(12)
	if err != nil {
		return nil, err
	}
	asmM, solM, _, err := mm.StepTimes(12)
	if err != nil {
		return nil, err
	}
	asmGap := float64(asmA) / float64(asmM)
	solGap := float64(solA) / float64(solM)
	out = append(out, Finding{
		Statement: "HBM compensates on memory-bound phases (Alya Solver vs Assembly)",
		Holds:     solGap < 0.6*asmGap,
		Evidence:  fmt.Sprintf("assembly gap %.2fx vs solver gap %.2fx", asmGap, solGap),
	})

	// 5. "Single node memory limitations: Alya, OpenIFS and NEMO can not
	//    be run with a low number of nodes (NP in Table IV)."
	npSeen := true
	for _, app := range []string{"Alya", "OpenIFS", "NEMO"} {
		hasNP := false
		for _, c := range byApp[app].Cells {
			if c.NP {
				hasNP = true
			}
		}
		npSeen = npSeen && hasNP
	}
	out = append(out, Finding{
		Statement: "memory floors make some applications impossible on few nodes",
		Holds:     npSeen,
		Evidence:  "NP entries present for Alya, OpenIFS and NEMO",
	})

	// 6. "HPCG ... does not seem to predict/mimic the trend of any of the
	//    applications tested": HPCG says CTE-Arm wins, every application
	//    says it loses.
	hpcgWins := true
	for _, c := range byApp["HPCG"].Cells {
		if !c.NA && !c.NP && c.Speedup <= 1 {
			hpcgWins = false
		}
	}
	appsLose := true
	for _, app := range apps {
		for _, c := range byApp[app].Cells {
			if !c.NA && !c.NP && c.Speedup >= 1 {
				appsLose = false
			}
		}
	}
	out = append(out, Finding{
		Statement: "HPCG does not predict application behaviour",
		Holds:     hpcgWins && appsLose,
		Evidence:  "HPCG > 1x everywhere measured; every application < 1x",
	})

	// 7. The micro-architecture itself is not the bottleneck: hand-tuned
	//    code reaches the higher A64FX peak (Fig. 1).
	execArm, err := perfmodel.NewExec(e.Arm, toolchain.GNUArmSVE(), "HPL")
	if err != nil {
		return nil, err
	}
	execRef, err := perfmodel.NewExec(e.Ref, toolchain.IntelMN4(), "HPL")
	if err != nil {
		return nil, err
	}
	tuned := float64(execArm.CoreFlops(toolchain.HandTunedAsm))
	tunedRef := float64(execRef.CoreFlops(toolchain.HandTunedAsm))
	out = append(out, Finding{
		Statement: "hand-tuned code reaches the A64FX's higher peak",
		Holds:     tuned > tunedRef,
		Evidence: fmt.Sprintf("hand-tuned per core: %.1f vs %.1f GFlop/s",
			tuned/1e9, tunedRef/1e9),
	})

	return out, nil
}
