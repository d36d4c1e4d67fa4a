package convert

import (
	"strings"
	"testing"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/popmachine"
)

// goldenMachines returns the machines whose conversions are pinned by
// fingerprint: the Figure 4 test machine, Figure 1, and the first levels
// of the threshold and equality constructions.
func goldenMachines(t *testing.T) []*popmachine.Machine {
	t.Helper()
	czerner, err := core.New(1)
	if err != nil {
		t.Fatal(err)
	}
	equality, err := core.NewEquality(1)
	if err != nil {
		t.Fatal(err)
	}
	out := []*popmachine.Machine{figure4Machine(t), compiledFigure1(t)}
	for _, c := range []*core.Construction{czerner, equality} {
		m, err := compile.Compile(c.Program)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, m)
	}
	return out
}

// TestConvertFingerprintGolden pins the conversion byte for byte: the
// SHA-256 fingerprints (state names and order, transition order, input and
// accepting sets) of Convert's Protocol and Core and of Optimize's
// Protocol, with their sizes.
func TestConvertFingerprintGolden(t *testing.T) {
	type size struct{ states, transitions int }
	want := []struct {
		plain, core, optimized string
		plainSize, optSize     size
	}{{
		plain:     "eb8593cee5cdb784a7f8e23c74ff5a1445bd115fada8a86a0229b8b119c94872",
		core:      "19b83c04bd208d47b49f99ca762de102635dd0a86fbf2426e6cf64e240bbddd5",
		optimized: "be9f5e42d925ff9f18a0cca8943b914f1530f4f952ae362f425abaea38dc8848",
		plainSize: size{84, 2_500}, optSize: size{56, 1_192},
	}, {
		plain:     "c4774aba09a12af6fe7f6243a1014838f2d7adb6b8337bf566f647549106c8f6",
		core:      "b30a874b349e89c03d949bed632c5fa7c8b14372c4acdd31029ffec214136107",
		optimized: "649d2a7d3afa5b08b0722f464caa041790771ac7468dfcaf50cfe446cddbcfcc",
		plainSize: size{904, 645_364}, optSize: size{492, 135_940},
	}, {
		plain:     "df6d28cd991b390a3ddbf47fe4506ff71ffddd68d18f834e99c60f535d3830ff",
		core:      "f6eddcb22c4a4ac1826d73dbffabc55a5915fd851b60e506f175b1e4508d00be",
		optimized: "363bf15e77fe766afeed226a4b789b89d5d66a3381882b17c9a9a197bdb6cdb6",
		plainSize: size{1_804, 2_367_216}, optSize: size{514, 92_648},
	}, {
		plain:     "e6cf8e6dce8323c60fcd399a826e35802d5077b225d19bb1f102967d44877b7c",
		core:      "d06c0f8aa4e34c16364e89c7df71810f78ae8d9fd7e6fbbe01872ee84bc6c51f",
		optimized: "1db55dd99caf03e9225b1a807247c311c0ca9838bdd1c76e2f8f754a88956fce",
		plainSize: size{1_830, 2_444_900}, optSize: size{528, 99_692},
	}}
	for i, m := range goldenMachines(t) {
		res, err := Convert(m)
		if err != nil {
			t.Fatal(err)
		}
		opt, _, err := Optimize(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			what, got, want string
		}{
			{"Protocol", res.Protocol.Fingerprint(), want[i].plain},
			{"Core", res.Core.Fingerprint(), want[i].core},
			{"optimized Protocol", opt.Protocol.Fingerprint(), want[i].optimized},
		} {
			if c.got != c.want {
				t.Errorf("%s: %s fingerprint %s, want %s", m.Name, c.what, c.got, c.want)
			}
		}
		for _, c := range []struct {
			what string
			got  size
			want size
		}{
			{"Protocol", size{res.Protocol.NumStates(), len(res.Protocol.Transitions)}, want[i].plainSize},
			{"optimized Protocol", size{opt.Protocol.NumStates(), len(opt.Protocol.Transitions)}, want[i].optSize},
		} {
			if c.got != c.want {
				t.Errorf("%s: %s |Q|/|T| = %v, want %v", m.Name, c.what, c.got, c.want)
			}
		}
		checkFamiliesMatchNames(t, m, res)
		checkFamiliesMatchNames(t, m, opt)
	}
}

// checkFamiliesMatchNames recomputes every state's family from its name
// (a pointer state is named after its pointer, a register state after its
// register) and compares it with res.Families.
func checkFamiliesMatchNames(t *testing.T, m *popmachine.Machine, res *Result) {
	t.Helper()
	fams := res.Families()
	for j, name := range res.Protocol.States {
		coreName := strings.TrimSuffix(strings.TrimSuffix(name, "|+"), "|-")
		want := -1
		for pi, p := range m.Pointers {
			if strings.HasPrefix(coreName, p.Name+"=") || strings.HasPrefix(coreName, p.Name+"·map") {
				want = pi
			}
		}
		if fams[j] != want {
			t.Fatalf("%s: state %q has family %d, want %d", m.Name, name, fams[j], want)
		}
	}
}

// TestConvertAllocs bounds Convert's allocations on Figure 1: states are
// named once each and the transition tables are allocated at their final
// sizes, so the count scales with |Q*|, not with |T| (645,364).
func TestConvertAllocs(t *testing.T) {
	m := compiledFigure1(t)
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := Convert(m); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 10_000 {
		t.Fatalf("Convert(figure1) made %.0f allocations, want ≤ 10000", allocs)
	}
}

// TestCountStatesMatchesConvert checks that the counting path and the
// full conversion agree on |Q*| and 2·|Q*|, before and after the
// machine-level shrink passes.
func TestCountStatesMatchesConvert(t *testing.T) {
	for _, m := range goldenMachines(t) {
		opt, _, err := compile.OptimizeMachine(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, mm := range []*popmachine.Machine{m, opt} {
			coreStates, protocolStates, err := CountStates(mm)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Convert(mm)
			if err != nil {
				t.Fatal(err)
			}
			if coreStates != res.CoreStates || coreStates != res.Core.NumStates() ||
				protocolStates != res.Protocol.NumStates() {
				t.Fatalf("%s: CountStates = (%d, %d), Convert has |Q*| = %d (core %d), |Q| = %d",
					mm.Name, coreStates, protocolStates, res.CoreStates, res.Core.NumStates(),
					res.Protocol.NumStates())
			}
		}
	}
}

// TestConvertRejectsUnplannableMachine covers machines that pass
// popmachine.Validate but whose states the conversion cannot lay out:
// each must fail Convert and CountStates alike instead of yielding a
// protocol with stray states (an IP domain with a gap made Convert add
// "IP=2·…" states CountStates never counted, owned by no family).
func TestConvertRejectsUnplannableMachine(t *testing.T) {
	for _, c := range []struct {
		name  string
		build func(t *testing.T) *popmachine.Machine
	}{
		{"IP domain with a gap", func(t *testing.T) *popmachine.Machine {
			b := popmachine.NewBuilder("gap", []string{"x"})
			m := b.Machine()
			b.Emit(popmachine.DetectInstr{X: 0})
			b.Emit(popmachine.Jump(m, 1))
			b.Emit(popmachine.Jump(m, 3))
			machine, err := b.Finish()
			if err != nil {
				t.Fatal(err)
			}
			machine.Pointers[machine.IP].Domain = []int{1, 3}
			return machine
		}},
		{"repeated domain value", func(t *testing.T) *popmachine.Machine {
			b := popmachine.NewBuilder("repeat", []string{"x"})
			m := b.Machine()
			b.Emit(popmachine.ConstAssign(m, m.VBox, 0))
			b.Emit(popmachine.Jump(m, 2))
			machine, err := b.Finish()
			if err != nil {
				t.Fatal(err)
			}
			machine.Pointers[machine.VBox].Domain = []int{0, 0}
			return machine
		}},
		{"IP as a register-map pointer", func(t *testing.T) *popmachine.Machine {
			b := popmachine.NewBuilder("ip-vreg", []string{"x", "y"})
			b.Emit(popmachine.MoveInstr{X: 0, Y: 1})
			machine, err := b.Finish()
			if err != nil {
				t.Fatal(err)
			}
			machine.VReg[1] = machine.IP
			return machine
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := c.build(t)
			if err := m.Validate(); err != nil {
				t.Fatalf("test machine is invalid: %v", err)
			}
			if res, err := Convert(m); err == nil {
				t.Fatalf("Convert accepted it: |Q*| = %d", res.CoreStates)
			}
			if n, _, err := CountStates(m); err == nil {
				t.Fatalf("CountStates accepted it: |Q*| = %d", n)
			}
		})
	}
}
