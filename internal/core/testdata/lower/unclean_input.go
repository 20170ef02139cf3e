package p
import "fmt"
// Not gofmt-clean: the lowering keeps this layout around its own code.
func f(a []int,n int) {
  s:=0
	//omp parallel for reduction(+:s)
	for i:=0;i<n;i++ {
	    s+=a[i]   // odd spacing
	}
   fmt.Println( s )
}
