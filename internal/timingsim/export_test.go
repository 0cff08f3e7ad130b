package timingsim

// Random-design helpers shared with the external test package, whose
// tests need the bundled MPU (and so packages that import timingsim).
var (
	BuildRandomDesign = buildRandomDesign
	RandomValues      = randomValues
	RandomStrike      = randomStrike
	ValueBits         = valueBits
)
