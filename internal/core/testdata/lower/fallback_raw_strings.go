package p

import "fmt"

// The continuation lines of a multi-line raw string are part of the string:
// lowering keeps them byte for byte, at column 0 or indented, while the
// lines around them move into the generated closure.
func rawStrings(n int) {
	//omp parallel
	{
		fmt.Println(`first
second
	tabbed
    spaced`)
	}
	//omp parallel for
	for i := 0; i < n; i++ {
		fmt.Println(i, `x
y`, `a // not a comment
		b "not a string" `+"c`")
	}
}
