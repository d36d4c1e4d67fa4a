package presburger_test

import (
	"fmt"
	"math/big"

	"repro/internal/presburger"
)

// The size measure |φ| counts coefficients in binary, so thresholds have
// logarithmic size — the yardstick of the paper's Table 1.
func ExampleThreshold() {
	small := presburger.Threshold("x", big.NewInt(10))
	huge := presburger.Threshold("x", new(big.Int).Lsh(big.NewInt(1), 256))
	fmt.Println(small.Size(), huge.Size())
	// Output: 7 260
}
