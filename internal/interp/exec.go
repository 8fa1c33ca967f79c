package interp

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/ir"
)

// ExitError is returned when the program calls exit(code).
type ExitError struct{ Code int32 }

func (e *ExitError) Error() string { return fmt.Sprintf("program exited with code %d", e.Code) }

// RunMain executes the module's main() and returns its exit code.
func (m *Machine) RunMain() (int32, error) { return m.runMain(m.callFast) }

// runMain runs main() through call, turning exit(code) into the exit code.
func (m *Machine) runMain(call func(*ir.Func, []uint64) (uint64, error)) (int32, error) {
	mainf := m.Mod.Func("main")
	if mainf == nil {
		return 0, fmt.Errorf("interp(%s): module %s has no main", m.Name, m.Mod.Name)
	}
	ret, err := call(mainf, nil)
	var xe *ExitError
	if errors.As(err, &xe) {
		return xe.Code, nil
	}
	if err != nil {
		return 0, err
	}
	return int32(ret), nil
}

// CallFunc invokes f with the given argument bits on the pre-decoded
// engine.
func (m *Machine) CallFunc(f *ir.Func, args ...uint64) (uint64, error) {
	return m.callFast(f, args)
}

func signExtend(v uint64, bits int) uint64 {
	if bits >= 64 {
		return v
	}
	shift := uint(64 - bits)
	return uint64(int64(v<<shift) >> shift)
}

// floatBits returns the register representation of a float constant: f32
// values are promoted to f64 bits.
func floatBits(t *ir.FloatType, v float64) uint64 {
	return math.Float64bits(v)
}
