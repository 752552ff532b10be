package relation

// What the external test package (relation_test, which can import
// workloads) needs from inside: the codec with its block size and
// worker count as parameters, so that a test of a few hundred bytes
// puts records, quoted line breaks and "\r\n" on block boundaries and
// runs the workers.
var (
	ReadCSVBlocks  = readCSV
	WriteCSVBlocks = writeCSV
)

// UnrenderableValue is a string value of one byte at address zero:
// rendering it faults. WriteCSV's failing-writer test puts it in the
// rows that must not be rendered any more.
func UnrenderableValue() Value { return Value{kind: KindString, n: 1} }
